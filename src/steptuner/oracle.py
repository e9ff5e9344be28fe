"""Analytic noise-prediction oracle for Gaussian-mixture data.

For data drawn from a mixture of isotropic Gaussians, the noised marginal
at time t is itself a mixture,

    q_t(x) = sum_k w_k N(x; alpha_t mu_k, (alpha_t^2 c_k^2 + sigma_t^2) I),

so the score and the ideal noise prediction have closed forms. The oracle
plays the role a trained network would play, but exactly: epsilon(x, t) is
the true posterior mean of the noise given x_t = x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import BLOCK, PURPOSE_DATA, per_sample_map
from .schedule import NoiseSchedule


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
        # per-model constants of every evaluation, as (k, 1) columns
        object.__setattr__(self, "_log_weights", np.log(weights)[:, None])
        object.__setattr__(self, "_scales_sq", (scales**2)[:, None])

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _log_weighted_densities(self, x: np.ndarray, t) -> tuple:
        """x as (n, D), the (k, n) log(w_k N(x; alpha mu_k, v_k I)), alpha mu, v, sigma.

        Component-major, so reductions over components run along contiguous rows, and
        ||x - a mu_k||^2 = ||x||^2 - 2 a mu_k . x + ||a mu_k||^2 needs no (n, k, D) tensor.
        t may also be a 1-D array of G times: alpha and sigma broadcast as (G, 1, 1),
        every other array gains a leading axis of G, and each slice equals the
        evaluation at its one time bitwise.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise DomainError(f"oracle needs points of shape (n, D), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DomainError("oracle evaluated at non-finite point")
        alpha, sigma = self.schedule.alpha_sigma(t)
        if isinstance(alpha, np.ndarray):  # G times
            if alpha.ndim != 1:
                raise DomainError(f"t: need one time or a 1-D array, got shape {alpha.shape}")
            alpha, sigma = alpha[:, None, None], sigma[:, None, None]
        v = alpha * alpha * self._scales_sq + sigma * sigma  # (k, 1) or (G, k, 1)
        am = alpha * self.means  # (k, D) or (G, k, D)
        logn = (-2.0 * am) @ x.T  # (k, n) or (G, k, n); scaling by -2 is exact
        logn += np.einsum("nd,nd->n", x, x)
        logn += np.einsum("...kd,...kd->...k", am, am)[..., None]
        logn *= -0.5 / v
        logn += self._log_weights - 0.5 * self.dim * np.log(2.0 * np.pi * v)
        return x, logn, am, v, sigma

    @staticmethod
    def _normalise(logn: np.ndarray) -> tuple:
        """Posterior probabilities from (..., k, n) log weights, in place; also max and sum."""
        m = logn.max(axis=-2)
        logn -= m[..., None, :]
        np.exp(logn, out=logn)
        total = logn.sum(axis=-2)
        logn /= total[..., None, :]
        return logn, m, total

    def responsibilities(self, x: np.ndarray, t) -> np.ndarray:
        """(n, k) posterior component probabilities, stable in log space."""
        return self._normalise(self._log_weighted_densities(x, t)[1])[0].swapaxes(-1, -2)

    def log_density(self, x: np.ndarray, t) -> np.ndarray:
        """log q_t(x) via log-sum-exp over components."""
        squeeze = np.asarray(x).ndim == 1
        _, m, total = self._normalise(self._log_weighted_densities(x, t)[1])
        out = m + np.log(total)
        return float(out[0]) if squeeze else out

    def _score_sigma(self, x: np.ndarray, t) -> tuple:
        """(score, sigma_t): sum_k g_k (a mu_k - x) / v_k = (g / v)^T @ a mu - x sum_k g_k / v_k."""
        x, gv, am, v, sigma = self._log_weighted_densities(x, t)
        self._normalise(gv)
        gv /= v
        out = gv.swapaxes(-1, -2) @ am
        weight = gv.sum(axis=-2)[..., None]
        del gv  # free the (k, n) array before the last (n, D) temporary
        out -= x * weight
        return out, sigma

    @staticmethod
    def _like(x, out: np.ndarray) -> np.ndarray:
        """out without its row axis when x is a single point."""
        return out[..., 0, :] if np.asarray(x).ndim == 1 else out

    def score(self, x: np.ndarray, t) -> np.ndarray:
        """Gradient of log q_t at x: responsibility-weighted Gaussian pulls."""
        return self._like(x, self._score_sigma(x, t)[0])

    def epsilon(self, x: np.ndarray, t) -> np.ndarray:
        """Ideal noise prediction: -sigma_t times the score at (x, t).

        x is one (n, D) batch of points. t is one time, giving (n, D), or a
        1-D array of G times, giving the (G, n, D) predictions at each; a
        slice equals the call at its one time bitwise.
        """
        out, sigma = self._score_sigma(x, t)
        out *= -sigma
        return self._like(x, out)

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
        if n < 0:
            raise DomainError(f"sample count must be >= 0, got {n}")
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
    if dim < 1:
        raise DomainError(f"dim: must be >= 1, got {dim}")
    if preset == "gmm8":
        return gmm8(schedule)
    if preset == "standard":
        return standard_gaussian(schedule, dim)
    raise DomainError(f"preset: unknown oracle preset {preset!r}")
