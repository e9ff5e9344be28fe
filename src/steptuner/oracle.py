"""Analytic noise-prediction oracle for Gaussian-mixture data.

For data drawn from a mixture of isotropic Gaussians, the noised marginal
at time t is itself a mixture,

    q_t(x) = sum_k w_k N(x; alpha_t mu_k, (alpha_t^2 c_k^2 + sigma_t^2) I),

so the score and the ideal noise prediction have closed forms. The oracle
plays the role a trained network would play, but exactly: epsilon(x, t) is
the true posterior mean of the noise given x_t = x.

Every evaluation runs on a point-major array: an (n, D) batch becomes the
(D + 2, n) array X = [1; x^T; -||x||^2 / 2], which is evaluated at one time
or a table of times. A caller that evaluates one batch at many times, like
the dense reference, keeps X and moves its point rows in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, check_integer
from .rng import BLOCK, PURPOSE_DATA, per_sample_map
from .schedule import NoiseSchedule

# exp of a value below about -708.4 is subnormal, and numpy computes it on a
# scalar path some hundred times slower; ``epsilon`` and ``score`` floor
# their shifted logits here first when a point could reach that far
_EXP_FLOOR = -707.5


def _as_floats(name: str, value) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"{name}: expected a rectangular array of numbers") from exc
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name}: expected numbers, got {value!r}")
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: must be finite, got {value!r}")
    return arr


@dataclass(frozen=True, eq=False)
class OracleTimes:
    """Time-dependent constants of oracle evaluations, from ``GaussianMixtureOracle.times``.

    t is one time or a 1-D array of G times, C the (k, D + 3) coefficient
    array (G, k, D + 3 for G times) and sigma the noise scale (a float, or
    (G, 1)). Pass a table as the t of ``epsilon``, ``score``,
    ``responsibilities`` or ``log_density`` of the oracle that built it.

    safe_r2 bounds the exp floor: at points with ||x||^2 <= safe_r2 no
    shifted logit falls below ``_EXP_FLOOR`` (negative when no point is
    safe). A G-time table holds the least of its rows' values, which
    row_safe_r2 keeps as a (G,) array.

    The oracle's evaluation kernel also reads row j of a G-time table in
    place, from C[j], sigma[j, 0] and row_safe_r2[j], which equal those of
    the table of time j alone; the dense reference walks its table that
    way, one row per step.
    """

    model: GaussianMixtureOracle = field(repr=False)
    t: object
    C: np.ndarray
    sigma: object
    safe_r2: float
    row_safe_r2: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass(frozen=True)
class GaussianMixtureOracle:
    schedule: NoiseSchedule
    means: np.ndarray  # (n_components, D)
    scales: np.ndarray  # (n_components,), isotropic per component, > 0
    weights: np.ndarray  # (n_components,), sums to 1

    def __post_init__(self) -> None:
        means = np.atleast_2d(_as_floats("means", self.means))
        scales = _as_floats("scales", self.scales)
        weights = _as_floats("weights", self.weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", weights)
        if means.ndim != 2 or means.shape[1] == 0:
            raise DomainError(f"means: need shape (components, dim >= 1), got {means.shape}")
        k = means.shape[0]
        for name, arr in (("scales", scales), ("weights", weights)):
            if arr.shape != (k,):
                raise DomainError(f"{name}: need one entry per component, got {arr.shape}")
        if np.any(scales <= 0):
            raise DomainError("scales: must all be positive")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights: must be positive and sum to 1")
        # per-model constants of every evaluation
        D = means.shape[1]
        object.__setattr__(self, "_log_norms", np.log(weights) - (0.5 * D) * np.log(2.0 * np.pi))
        object.__setattr__(self, "_scales_sq", scales**2)
        object.__setattr__(self, "_half_means_sq", 0.5 * np.einsum("kd,kd->k", means, means))
        # the exp floor's bound safe_r2 = a alpha^2 + b sigma^2 (see ``times``)
        b = -_EXP_FLOOR - 0.5 - np.ptp(np.log(weights)) - D * np.log(scales.max() / scales.min())
        a = b * scales.min() ** 2 - 2.0 * self._half_means_sq.max()
        object.__setattr__(self, "_safe_ab", (float(a), float(b)))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def times(self, t) -> OracleTimes:
        """The time side of an evaluation at one time or a 1-D array of times.

        With v_k = alpha^2 c_k^2 + sigma^2, ||x - alpha mu_k||^2 expands to
        ||x||^2 - 2 alpha mu_k . x + alpha^2 ||mu_k||^2, so the logits
        log(w_k N(x; alpha mu_k, v_k I)) are A @ X for the (D + 2, n) array
        X = [1; x^T; -||x||^2 / 2] and A's row k = [log w_k - (D/2) log(2 pi
        v_k) - alpha^2 ||mu_k||^2 / (2 v_k), alpha mu_k / v_k, 1 / v_k]. B's
        row k = [alpha mu_k / v_k, 1 / v_k, 1] gives the posterior moments as
        B^T @ exp(g). A and B are the first and last D + 2 columns of the one
        (k, D + 3) array C, which depends on the time alone. For G times, C
        gains a leading axis of G and sigma is (G, 1); row j of the table
        equals the table of time j bitwise. A caller that knows its times in
        advance builds the table once and passes it as t.

        The exp floor's bound: a shifted logit g_k - max_j g_j at a point of
        norm R is at least -(log(w_max / w_min) + (D/2) log(v_max / v_min) +
        (R + alpha max_k ||mu_k||)^2 / (2 v_min)). With v_max / v_min <=
        c_max^2 / c_min^2 and (R + m)^2 <= 2 R^2 + 2 m^2 this stays at or
        above ``_EXP_FLOOR`` + 1/2 while R^2 <= safe_r2 = b v_min - alpha^2
        max_k ||mu_k||^2, where b = -``_EXP_FLOOR`` - 1/2 - log(w_max / w_min)
        - D log(c_max / c_min); the half nat covers the rounding of the
        logits. safe_r2 = a alpha^2 + b sigma^2 for two per-model constants.
        """
        alpha, sigma = self.schedule.alpha_sigma(t)
        if isinstance(alpha, np.ndarray):  # G times
            if alpha.ndim != 1:
                raise DomainError(f"t: need one time or a 1-D array, got shape {alpha.shape}")
            alpha, sigma = alpha[:, None], sigma[:, None]
            t = np.asarray(t, dtype=float)
        else:
            t = float(t)
        D = self.dim
        v = self._scales_sq * (alpha * alpha) + sigma * sigma  # (k,) or (G, k)
        C = np.empty(v.shape + (D + 3,))
        inv_v = np.divide(1.0, v, out=C[..., D + 1])
        np.multiply(self.means, (alpha * inv_v)[..., None], out=C[..., 1 : D + 1])
        C[..., 0] = (
            self._log_norms - (0.5 * D) * np.log(v) - (alpha * alpha * inv_v) * self._half_means_sq
        )
        C[..., D + 2] = 1.0
        C.flags.writeable = False
        a, b = self._safe_ab
        safe = a * (alpha * alpha) + b * (sigma * sigma)
        if isinstance(safe, np.ndarray):
            safe = safe.ravel()
            return OracleTimes(self, t, C, sigma, float(safe.min()), safe)
        return OracleTimes(self, t, C, sigma, safe)

    def _points(self, x) -> tuple:
        """(X, x): the (D + 2, n) point array of an (n, D) batch and its (D, n) point rows.

        X = [1; x^T; -||x||^2 / 2] is point-major: rows 1..D hold the points,
        one per column (see ``times``), and the returned rows are a view of
        them. ``_logits`` fills the last row from them at every evaluation,
        so a caller may move the points in place between evaluations.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DomainError(f"oracle needs points of shape (n, {self.dim}), got {x.shape}")
        X, rows = self._point_array(len(x))
        rows[...] = x.T
        return X, rows

    def _point_array(self, n: int) -> tuple:
        """(X, x): an empty (D + 2, n) point array, its constant row set, and
        its (D, n) point rows as a view, for a caller to fill with points."""
        X = np.empty((self.dim + 2, n))
        X[0] = 1.0
        return X, X[1 : self.dim + 1]

    def _table(self, t) -> OracleTimes:
        """t as a table of ``times``; a table built by another oracle is rejected."""
        table = t if isinstance(t, OracleTimes) else self.times(t)
        if table.model is not self:
            raise DomainError("t: a table built by another oracle")
        return table

    def _logits(self, X: np.ndarray, C: np.ndarray) -> tuple:
        """(g, r2): the (..., k, n) logits C[..., :D + 2] @ X, as a new array.

        The last row of X is filled from its point rows first. The arrays
        are component-major, so reductions over components run along
        contiguous rows. r2 is the largest squared norm of a point; it is
        finite exactly when every coordinate is finite and no squared norm
        overflows, which is the check of the points.

        numpy's matrix-vector kernel rounds unlike its matrix-matrix one,
        which would make a row's result depend on its batch. So a one-point
        X is evaluated as a copy holding that point twice, made before its
        norm row is filled (``einsum`` sums one contiguous column in another
        order too); g then has two equal columns, and each caller keeps the
        first column of what it derives from g. A one-component C is likewise
        taken as that component twice, and g keeps the first row of the
        product.
        """
        D = self.dim
        if X.shape[1] == 1:
            X = np.repeat(X, 2, axis=1)
        x = X[1 : D + 1]
        np.einsum("dn,dn->n", x, x, out=X[D + 1])
        X[D + 1] *= -0.5
        r2 = -2.0 * float(X[D + 1].min(initial=0.0))
        if not r2 < np.inf:
            if np.all(np.isfinite(x)):
                raise DomainError("oracle evaluated at a point whose squared norm overflows")
            raise DomainError("oracle evaluated at non-finite point")
        A = C[..., : D + 2]
        if A.shape[-2] == 1:
            return np.matmul(np.repeat(A, 2, axis=-2), X)[..., :1, :], r2
        return np.matmul(A, X), r2

    @staticmethod
    def _exp_shifted(g: np.ndarray, floor: bool = False) -> np.ndarray:
        """exp(g - max_k g) in place, the exponents first floored at
        ``_EXP_FLOOR`` if floor is set; returns the (..., n) column maxima."""
        m = g.max(axis=-2)
        g -= m[..., None, :]
        if floor:
            np.maximum(g, _EXP_FLOOR, out=g)
        np.exp(g, out=g)
        return m

    def responsibilities(self, x: np.ndarray, t) -> np.ndarray:
        """(n, k) posterior component probabilities, stable in log space."""
        X, _ = self._points(x)
        g, _ = self._logits(X, self._table(t).C)
        self._exp_shifted(g)
        g /= g.sum(axis=-2)[..., None, :]
        return g[..., : X.shape[1]].swapaxes(-1, -2)

    def log_density(self, x: np.ndarray, t) -> np.ndarray:
        """log q_t(x) via log-sum-exp over components."""
        X, _ = self._points(x)
        g, _ = self._logits(X, self._table(t).C)
        out = (self._exp_shifted(g) + np.log(g.sum(axis=-2)))[..., : X.shape[1]]
        if np.asarray(x).ndim == 1:
            out = out[..., 0]
        return float(out) if out.ndim == 0 else out

    def _evaluate(self, X, table, j=None, times_sigma=True, out=None):
        """-sigma times the score (the score without times_sigma) at the points X, as (..., D, n).

        The one evaluation path of ``epsilon`` and ``score``: X is a point
        array of ``_points`` or ``_point_array``, evaluated at row j of
        table, or at all of it when j is None. M = B^T @ exp(g - max g)
        stacks sum_k g_k alpha mu_k / v_k, sum_k g_k / v_k and sum_k g_k, so
        the score sum_k r_k (alpha mu_k - x) / v_k for responsibilities r =
        g / sum_k g_k is (M[:D] - x^T M[D]) / M[D + 1]: the (k, n) array is
        never divided, only the (D, n) result, once.

        The shifted logits are floored at ``_EXP_FLOOR`` when the table's
        bound says a point could fall below it. A floored component's weight
        exp(-707.5) ~ 5e-308 against the largest one's 1 changes no moment
        that another component contributes to, and whether the floor is
        taken never changes a row: a row with a logit below the floor takes
        it in every batch.

        The kernel allocates its (..., k, n) logits and (..., D + 2, n)
        moments itself; for one point they hold two equal columns (see
        ``_logits``), and only the first is used past M. A caller that
        evaluates one batch at many times passes its own (..., D, n) result
        out, which is overwritten; without out the result is written through
        the transposed view of a new C-contiguous (..., n, D) array, since
        returning a transposed view itself slows every elementwise consumer.
        """
        if j is None:
            C, sigma, safe_r2 = table.C, table.sigma, table.safe_r2
        else:
            C, sigma, safe_r2 = table.C[j], table.sigma[j, 0], table.row_safe_r2[j]
        D, n = self.dim, X.shape[1]
        g, r2 = self._logits(X, C)
        self._exp_shifted(g, floor=r2 > safe_r2)
        M = np.matmul(C[..., 1:].swapaxes(-1, -2), g)
        del g  # free the (k, n) array before the (D, n) temporaries
        if M.shape[-1] != n:  # one point, evaluated as two by _logits
            M = M[..., :n]
        s = M[..., :D, :]
        s -= X[1 : D + 1] * M[..., D : D + 1, :]
        scale = (-sigma if times_sigma else 1.0) / M[..., D + 1, :]
        if out is None:
            out = np.empty(s.shape[:-2] + (s.shape[-1], D)).swapaxes(-1, -2)
        return np.multiply(s, scale[..., None, :], out=out)

    def _score(self, x: np.ndarray, t, times_sigma: bool) -> np.ndarray:
        """The score, or -sigma times it, at t in the layout of x: (..., n, D)
        for an (n, D) batch, (..., D) for a single point."""
        X, _ = self._points(x)
        out = self._evaluate(X, self._table(t), times_sigma=times_sigma).swapaxes(-1, -2)
        return out[..., 0, :] if np.asarray(x).ndim == 1 else out

    def score(self, x: np.ndarray, t) -> np.ndarray:
        """Gradient of log q_t at x: responsibility-weighted Gaussian pulls."""
        return self._score(x, t, times_sigma=False)

    def epsilon(self, x: np.ndarray, t) -> np.ndarray:
        """Ideal noise prediction: -sigma_t times the score at (x, t).

        x is one (n, D) batch of points. t is one time, giving (n, D), or a
        1-D array of G times, giving the (G, n, D) predictions at each; a
        slice equals the call at its one time bitwise. A table of ``times``
        gives what its times give, bitwise. Each row equals the call on that
        row alone bitwise.
        """
        return self._score(x, t, times_sigma=True)

    def draw(self, n: int, key, extra: int = 0) -> tuple:
        """n data rows plus ``extra`` standard normal vectors per row.

        key is (seed, purpose, step). Rows come in blocks of ``BLOCK``;
        block b draws from the generator keyed by (*key, b) in a frozen
        order: one ``random(BLOCK)`` call picks the components by
        ``searchsorted(cumsum(weights), u, side="right")``, clipped to
        k - 1, then one ``standard_normal((BLOCK, 1 + extra, D))`` call
        gives each row its data noise followed by its extra vectors. A
        short last block keeps the first rows of that draw (the normals
        are drawn for its rows only, which gives the same values), so row
        j does not depend on n. Returns (x0 of shape (n, D), normals of
        shape (extra, n, D)).
        """
        check_integer("n", n, 0)
        check_integer("extra", extra, 0)
        D = self.dim
        cdf = np.cumsum(self.weights)
        x0 = np.empty((n, D))
        normals = np.empty((extra, n, D))

        def fill(rng: np.random.Generator, rows: slice) -> None:
            m = rows.stop - rows.start
            comp = np.searchsorted(cdf, rng.random(BLOCK), side="right")
            comp = np.minimum(comp[:m], len(cdf) - 1)
            z = rng.standard_normal((m, 1 + extra, D))
            x0[rows] = self.means[comp] + self.scales[comp, None] * z[:, 0]
            normals[:, rows] = z[:, 1:].transpose(1, 0, 2)

        per_sample_map(fill, n, key)
        return x0, normals

    def sample_data(self, n: int, seed: int) -> np.ndarray:
        """n clean data points, keyed by (seed, data purpose, step 0)."""
        return self.draw(n, (seed, PURPOSE_DATA, 0))[0]


def gmm8(schedule: NoiseSchedule) -> GaussianMixtureOracle:
    """Benchmark mixture: 8 equal modes on the unit circle, scale 0.05."""
    angles = 2.0 * np.pi * np.arange(8) / 8
    means = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return GaussianMixtureOracle(
        schedule=schedule,
        means=means,
        scales=np.full(8, 0.05),
        weights=np.full(8, 1.0 / 8.0),
    )


def standard_gaussian(schedule: NoiseSchedule, dim: int = 2) -> GaussianMixtureOracle:
    """Single standard-normal component; every solver map becomes linear."""
    return GaussianMixtureOracle(
        schedule=schedule,
        means=np.zeros((1, dim)),
        scales=np.ones(1),
        weights=np.ones(1),
    )


def make_oracle(preset: str, schedule: NoiseSchedule, dim: int = 2) -> GaussianMixtureOracle:
    """Named mixture; dim is the dimension of the standard preset."""
    check_integer("dim", dim, 1)
    if preset == "gmm8":
        return gmm8(schedule)
    if preset == "standard":
        return standard_gaussian(schedule, dim)
    raise DomainError(f"preset: unknown oracle preset {preset!r}")
