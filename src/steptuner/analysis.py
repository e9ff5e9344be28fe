"""Measurement protocols: gap profiles, distribution metrics, diagnostics.

The central object of study is the gap between a few-step sampler's states
and the exact reverse flow. The exact flow is approximated by a dense
untuned rollout (200 steps on a quadratic grid by default) from the same
starting noise with a fourth-order multistep integrator, in log-SNR down to
t_eps and in sigma / alpha below it, so that it keeps its order down to
t = 0. The coarse checkpoints are points of that rollout, so every one can
be compared pathwise against its ground-truth counterpart at the same time.
Distribution-level quality uses moment-matched Frechet distance and sliced
Wasserstein distance at the final state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial, sqrt
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError, check_integer
from .oracle import GaussianMixtureOracle
from .rng import PURPOSE_PATHS, PURPOSE_PROJ, derive_rng
from .samplers import SamplePath, SamplerConfig, sample_path
from .trajectory import POINT_TOL, Trajectory, TunedTrajectory, baseline_tuned
from .tuner import _loss, _mean_stderr, _prediction_time, _sum_last

# steps of the dense reference's quadratic grid
DENSE_K = 200
# predictions each dense step interpolates, and so its order
DENSE_ORDER = 4
# random projections of the sliced Wasserstein distance
N_PROJECTIONS = 128
# projection directions per chunk in sliced_wasserstein
_PROJ_CHUNK = 16


def csv_table(header: str, rows) -> str:
    """A CSV table: the header line, then each row as ",".join(map(repr, row))."""
    return "".join([header + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows])


@dataclass(frozen=True)
class GapReport:
    """Per-checkpoint mean L2 distance to the dense reference."""

    rows: list  # (step_index, t, mean_gap, stderr, n_paths)

    def to_csv(self) -> str:
        return csv_table("step_index,t,mean_gap,stderr,n_paths", self.rows)


@dataclass(frozen=True)
class EvalReport:
    """Distribution-level comparison of two sample sets."""

    frechet: float
    sliced_wasserstein: float
    mean_delta: float
    cov_delta: float
    n_a: int
    n_b: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def draw_start_states(model: GaussianMixtureOracle, n: int, seed: int) -> np.ndarray:
    """n fully-noised states alpha_T x0 + sigma_T eps, keyed (seed, paths, 0)."""
    x0, (eps,) = model.draw(n, (seed, PURPOSE_PATHS, 0), extra=1)
    return model.schedule.forward_sample(x0, model.schedule.T, eps)


def generate_paths(
    x_T: np.ndarray,
    tuned: TunedTrajectory,
    sampler: SamplerConfig,
    model: GaussianMixtureOracle,
) -> SamplePath:
    """Roll a batch of paths from x_T with the given conditioning times."""
    return sample_path(x_T, tuned, sampler, model)


def _dense_points(T: float, t_min: float, m: int) -> np.ndarray:
    """The m + 1 points t_min + (T - t_min) (j / m)^2 for j = m, ..., 0.

    The quadratic trajectory's spacing: its checkpoints lie on the grid
    whenever K divides m (K = 5, 10 and 20 at the default m = 200), and the
    steps near t_min are short, where ``dense_flow`` steps in sigma / alpha.
    """
    check_integer("dense_K", m, 1)
    if not t_min < T:
        raise DomainError(f"dense reference requires t_min < T, got {t_min} >= {T}")
    return t_min + (T - t_min) * (np.arange(m, -1, -1) / m) ** 2


def _merged_points(T: float, t_min: float, m: int, checkpoints) -> tuple:
    """(points, record): ``_dense_points`` with every checkpoint among them.

    A checkpoint within ``POINT_TOL`` T of a dense point (the tolerance of a
    tuned file's trajectory) is snapped onto the nearest one; any other one
    becomes a point of its own. record holds the indices of the checkpoints' points. The
    checkpoints must increase strictly and lie in [t_min, T], or DomainError
    is raised.
    """
    pts = _dense_points(T, t_min, m)
    c = np.asarray(checkpoints, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError(f"checkpoints: need a non-empty 1-D array of times, got shape {c.shape}")
    near = np.abs(c[:, None] - pts).argmin(axis=1)
    c = np.where(np.abs(c - pts[near]) <= POINT_TOL * T, pts[near], c)
    if not (np.all(np.diff(c) > 0) and t_min <= c[0] and c[-1] <= T):
        raise DomainError(f"checkpoints: must increase strictly within [{t_min}, {T}], got {c}")
    pts = np.union1d(pts, c)[::-1]
    return pts, np.flatnonzero(np.isin(pts, c))


def _dense_weights(model: GaussianMixtureOracle, pts: np.ndarray) -> tuple:
    """(ratio, W): the state ratios and the (m, DENSE_ORDER) weights of the dense steps.

    Step j, from p_{j-1} to p_j, is x <- ratio_j x - sum_i w_i eps_{j-1-i},
    with ratio_j = alpha_j / alpha_{j-1} and w = W[j - 1], where eps_k is
    the prediction at p_k and i < q = min(DENSE_ORDER, j); w_i is 0 for
    i >= q. It integrates the polynomial through those q predictions in one
    variable z, at the nodes u_i = z(p_{j-1-i}) - z(p_{j-1}), from 0 to
    h = z(p_j) - z(p_{j-1}):

        w_i = c_j sum_k r_k L_i^(k)(0),  L_i the Lagrange basis polynomial of node i.

    A step ending at t >= t_eps takes z = log-SNR lambda, with c_j = sigma_j
    and r_k = e^h - sum_{i <= k} h^i / i! (the integrals of the exponential
    weight against u^k / k!); q = 1 is the baseline solver step. A step
    ending below t_eps, where lambda is infinite, takes z = rho = sigma /
    alpha, with c_j = alpha_j and r_k = -h^(k+1) / (k+1)!: Adams-Bashforth
    in rho. All steps are computed at once, elementwise.
    """
    sched, m, q = model.schedule, len(pts) - 1, DENSE_ORDER
    alpha, sigma = sched.alpha_sigma(pts)
    in_lam = pts[1:] >= sched.t_eps  # the steps whose points all have a finite log-SNR
    lam = sched.log_snr(np.maximum(pts, sched.t_eps))  # read only where it is finite
    idx = np.arange(1, m + 1)[:, None] - np.arange(q + 1)  # step j's end p_j, then its nodes
    valid = idx[:, 1:] >= 0
    z = np.where(in_lam[:, None], lam[idx], (sigma / alpha)[idx])
    u, h = z[:, 1:] - z[:, 1:2], z[:, 0] - z[:, 1]
    # k! r_k, power k first. In lambda, where h > 0, r_{q-1} = sum_{i >= q}
    # h^i / i! is summed as its series below h = 1 (the 19th term is below
    # 1e-19 of the sum), and r_{k-1} = r_k + h^k / k! adds a positive term,
    # so no r_k cancels
    r = np.where(h < 1, sum(h**i / factorial(i) for i in range(q, q + 18)),
                 np.expm1(h) - sum(h**i / factorial(i) for i in range(1, q)))
    R = np.empty((q, m))
    for k in range(q - 1, -1, -1):
        R[k] = factorial(k) * np.where(in_lam, r, -h ** (k + 1) / factorial(k + 1))
        r = r + h**k / factorial(k)
    c = np.where(in_lam, sigma[1:], alpha[1:])
    # A[i] holds L_i's power coefficients, lowest first, multiplied by each
    # (u - u_l) / (u_i - u_l) in turn; its top one stays 0 until the last
    # factor, so shifting it up one power may wrap that round to the bottom
    U, V, A = u.T, valid.T, np.zeros((q, q, m))
    A[:, 0] = 1.0
    for l in range(q):
        use = V & V[l] & (np.arange(q) != l)[:, None]
        d = np.where(use, U - U[l], 1.0)[:, None]
        A = np.where(use[:, None], (A[:, np.arange(q) - 1] - U[l] * A) / d, A)
    W = np.where(V, c * (R * A).sum(axis=1), 0.0).T
    return alpha[1:] / alpha[:-1], W


def dense_flow(
    x: np.ndarray,
    model: GaussianMixtureOracle,
    points: np.ndarray,
    record: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense untuned deterministic rollout over the given points, from points[0] down.

    A fourth-order multistep exponential integrator (the multistep
    DPM-Solver of Lu et al. 2022 taken to order four) with one model
    evaluation per step. points is a strictly decreasing 1-D array p_0 >
    p_1 > ... > p_m of at least two times, and x is the state at p_0;
    anything else raises DomainError. Step j goes from p_{j-1} to p_j as
    one weighted sum of the last min(4, j) predictions (``_dense_weights``):
    in log-SNR down to t_eps and in rho = sigma / alpha below it, where it
    stays fourth order down to t = 0. Unequal steps are taken as they come,
    and the history carries across t_eps.

    record lists the indices j in [0, m] of the points whose states are
    kept (None keeps all); the states come back in walking order, so only
    len(record) states are ever stored. The oracle's time table of all
    m + 1 points and the weights are built once, before the first step.

    The state lives point-major, in the (D, n) point rows of the oracle's
    point array of x, for all m steps: each step evaluates that array at
    its row of the table into a ring of four (D, n) prediction buffers,
    multiplies the rows by ratio_j in place, then subtracts each weighted
    prediction, newest first, through one scratch buffer; only the kept
    states are transposed back to (n, D). Every operation is elementwise,
    so each row's states equal those of the batch bitwise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or not np.all(np.diff(pts) < 0):
        raise DomainError("dense flow needs a strictly decreasing 1-D array of at least two points")
    m, q = len(pts) - 1, DENSE_ORDER
    if record is not None and (bad := np.setdiff1d(record, np.arange(m + 1))).size:
        raise DomainError(f"record: index {bad[0]} is not an integer in [0, {m}]")
    keep = np.full(m + 1, True) if record is None else np.isin(np.arange(m + 1), record)
    X, state = model._points(x)
    states, slot = np.empty((int(keep.sum()),) + state.shape[::-1]), np.cumsum(keep) - 1
    if keep[0]:
        states[0] = state.T
    table = model.times(pts)
    ratio, W = _dense_weights(model, pts)
    ring, scratch = np.empty((q,) + state.shape), np.empty_like(state)
    for j in range(1, m + 1):
        model._evaluate(X, table, j - 1, out=ring[(j - 1) % q])
        state *= ratio[j - 1]
        for i in range(min(q, j)):
            state -= np.multiply(ring[(j - 1 - i) % q], W[j - 1, i], out=scratch)
        if keep[j]:
            states[slot[j]] = state.T
    return states


def reference_path(
    x_T: np.ndarray,
    model: GaussianMixtureOracle,
    dense_K: int = DENSE_K,
    t_min: float = 0.0,
    checkpoints: Optional[np.ndarray] = None,
) -> SamplePath:
    """The dense reference: ``dense_flow`` from T down to t_min.

    The grid is ``_dense_points``: dense_K steps, quadratic in t and so
    shortest near t_min, each of fourth order, down to t_min = 0 too. By default the path holds all dense_K + 1 states.
    Given checkpoint times, strictly increasing in [t_min, T], the grid
    gains each checkpoint as a point (``_merged_points``), and the path
    holds the states at the checkpoints only, with the checkpoints as given
    as its trajectory points; ``gap_profile`` pairs them with a coarse
    path's by index.
    """
    T = model.schedule.T
    if checkpoints is None:
        pts = _dense_points(T, t_min, dense_K)
        return SamplePath(states=dense_flow(x_T, model, pts), trajectory_points=pts[::-1])
    pts, record = _merged_points(T, t_min, dense_K, checkpoints)
    states = dense_flow(x_T, model, pts, record)
    return SamplePath(states=states, trajectory_points=np.asarray(checkpoints, dtype=float))


def _norms(d: np.ndarray) -> np.ndarray:
    """Row norms of d, as np.linalg.norm(d, axis=-1) takes them (see ``_sum_last``)."""
    return np.sqrt(_sum_last(d * d))


def gap_profile(coarse: SamplePath, reference: SamplePath) -> GapReport:
    """Mean L2 distance to the reference at every coarse checkpoint.

    The two paths must share their start states and their checkpoints, as
    ``reference_path`` given the coarse checkpoints does; row i compares
    their states at checkpoint i.
    """
    if coarse.states.shape[1:] != reference.states.shape[1:]:
        raise ContractError("coarse and reference paths disagree on batch shape")
    if not np.array_equal(coarse.trajectory_points, reference.trajectory_points):
        raise ContractError("coarse and reference paths must share their checkpoints")
    if not np.array_equal(coarse.states[0], reference.states[0]):
        raise ContractError("coarse and reference paths must share x_T")
    n_paths = coarse.states.shape[1]
    rows = []
    for i, t in enumerate(coarse.trajectory_points):
        mean_gap, stderr = _mean_stderr(_norms(coarse.state_at(i) - reference.state_at(i)))
        rows.append((i, float(t), mean_gap, stderr, n_paths))
    return GapReport(rows=rows)


def _checked_sets(sets: list, n_projections: Optional[int] = None) -> list:
    """sets as float (n, D) arrays, checked before any metric reads them.

    A 1-D array holds n samples in one dimension, read as (n, 1). Each set
    must be non-empty, finite and of the same dimension D, and
    n_projections, where given, an integer >= 1; anything else raises
    DomainError.
    """
    if n_projections is not None:
        check_integer("n_projections", n_projections, 1)
    sets = [np.asarray(x, dtype=float) for x in sets]
    sets = [x.reshape(-1, 1) if x.ndim < 2 else x for x in sets]
    for x in sets:
        if x.ndim != 2:
            raise DomainError(f"sample sets must be (n, D) arrays, got shape {x.shape}")
        if x.size == 0:
            raise DomainError("sample sets must be non-empty")
        if not np.all(np.isfinite(x)):
            raise DomainError("sample sets must hold finite numbers")
        if x.shape[1] != sets[0].shape[1]:
            raise DomainError(
                f"sample sets disagree on dimension: {sets[0].shape[1]} and {x.shape[1]}"
            )
    return sets


def _moments(x: np.ndarray) -> tuple:
    """Mean and (D, D) covariance of a checked sample set."""
    D = x.shape[1]
    if x.shape[0] < D + 1:
        raise DomainError(f"each sample set needs at least {D + 1} points")
    return x.mean(axis=0), np.atleast_2d(np.cov(x, rowvar=False))


def _frechet(ma: np.ndarray, Ca: np.ndarray, mb: np.ndarray, Cb: np.ndarray) -> float:
    wa, Va = np.linalg.eigh(Ca)
    root_a = (Va * np.sqrt(np.clip(wa, 0.0, None))) @ Va.T
    wm = np.linalg.eigvalsh(root_a @ Cb @ root_a)
    cross = np.sqrt(np.clip(wm, 0.0, None)).sum()
    fd2 = float(np.sum((ma - mb) ** 2) + np.trace(Ca) + np.trace(Cb) - 2.0 * cross)
    return max(0.0, fd2)


def frechet_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Squared moment distance between Gaussian fits of two sample sets.

    Follows the usual convention of reporting the squared 2-Wasserstein
    distance between N(m_a, C_a) and N(m_b, C_b); the matrix square root
    uses a symmetric eigendecomposition with negative eigenvalues clamped
    to zero.
    """
    a, b = _checked_sets([samples_a, samples_b])
    return _frechet(*_moments(a), *_moments(b))


def sliced_wasserstein(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    n_projections: int = N_PROJECTIONS,
    seed: int = 0,
) -> float:
    """Mean 1-D 2-Wasserstein distance over random unit projections."""
    a, b = _checked_sets([samples_a, samples_b], n_projections)
    return _sliced_wasserstein_many([a], b, n_projections, seed)[0]


def _levels(n: int, m: int):
    """Where n sorted values hold their quantiles at the levels (i + 1/2)/m.

    The inverted-CDF quantiles as indices: identical values to np.quantile
    (..., method="inverted_cdf") without its per-level cost, which is
    prohibitive for large m. At n = m they are 0..m-1, the identity slice.
    """
    if n == m:
        return slice(None)
    q = (np.arange(m) + 0.5) / m
    return np.clip(np.ceil(q * n).astype(int) - 1, 0, n - 1)


def _sliced_wasserstein_many(sets: list, b: np.ndarray, n_projections: int, seed: int) -> list:
    """sliced_wasserstein of each checked sample set in sets against b.

    A chunk of directions d projects a set as d @ x.T, one contiguous row
    of n values per direction, and sorts the rows in place. b is projected
    and sorted once per chunk, for all the sets; each value equals the call
    on its one set bitwise.
    """
    rng = derive_rng(seed, PURPOSE_PROJ, 0, 0)
    dirs = rng.standard_normal((n_projections, b.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    levels = []
    for a in sets:
        m = max(a.shape[0], b.shape[0])
        levels.append((_levels(a.shape[0], m), _levels(b.shape[0], m)))
    # a chunk of directions at a time keeps the (directions, rows) arrays small
    w2 = np.empty((len(sets), n_projections))
    for c in range(0, n_projections, _PROJ_CHUNK):
        d = dirs[c : c + _PROJ_CHUNK]
        sorted_b = d @ b.T
        sorted_b.sort(axis=1)
        for w, a, (ia, ib) in zip(w2, sets, levels):
            sq = d @ a.T
            sq.sort(axis=1)
            sq = sq[:, ia]
            sq -= sorted_b[:, ib]
            sq *= sq
            # the mean over axis 0 of the (m, directions) copy adds the
            # levels one after another; a pairwise sum along the rows would
            # move the last bits
            w[c : c + len(d)] = np.sqrt(np.mean(np.ascontiguousarray(sq.T), axis=0))
    return [float(w.mean()) for w in w2]


def evaluate_samples(
    generated: np.ndarray,
    data: np.ndarray,
    seed: int = 0,
    n_projections: int = N_PROJECTIONS,
) -> EvalReport:
    """Bundle of distribution metrics for generated samples against data."""
    return _evaluate_many([generated], data, seed, n_projections)[0]


def _evaluate_many(sets: list, data: np.ndarray, seed: int, n_projections: int) -> list:
    """evaluate_samples of each generated set against the one data set.

    Every set's mean and covariance are computed once, for both the
    Frechet distance and the deltas.
    """
    *sets, d = _checked_sets(sets + [data], n_projections)
    d_mean, d_cov = _moments(d)
    moments = [_moments(g) for g in sets]
    sw = _sliced_wasserstein_many(sets, d, n_projections, seed)
    return [
        EvalReport(
            frechet=_frechet(g_mean, g_cov, d_mean, d_cov),
            sliced_wasserstein=s,
            mean_delta=float(np.linalg.norm(g_mean - d_mean)),
            cov_delta=float(np.linalg.norm(g_cov - d_cov)),
            n_a=g.shape[0],
            n_b=d.shape[0],
            seed=seed,
        )
        for g, (g_mean, g_cov), s in zip(sets, moments, sw)
    ]


def step_replacement_sweep(
    traj: Trajectory,
    tuned: TunedTrajectory,
    sampler: SamplerConfig,
    model: GaussianMixtureOracle,
    n_samples: int,
    seed: int = 0,
    data_seed: int = 1,
    eval_seed: int = 2,
) -> list:
    """Metrics as tuned conditioning times replace untuned ones step by step.

    Element m of the result uses tuned times at the first m steps walked
    (from t_K downward) and untuned times elsewhere; m = 0 is the baseline
    and m = K the fully tuned sampler. All m share the same start states
    (drawn with seed) and the same fresh data (drawn with data_seed), and
    each report is ``evaluate_samples`` of its hybrid with eval_seed, as
    ``eval`` scores a sampler; the defaults are the config's default seeds.
    The tuned path is rolled once, and hybrid
    m is its state at t_{K-m} rolled through the untuned steps K-m..1: K +
    K(K+1)/2 solver steps in all. A step's eta > 0 noise depends only on
    its index, so this equals rolling each hybrid from x_T.
    """
    if tuned.base.K != traj.K:
        raise ContractError("tuned trajectory does not match the base trajectory")
    base = baseline_tuned(traj, model.schedule, sampler.kind)
    x_T = draw_start_states(model, n_samples, seed)
    data = model.sample_data(n_samples, data_seed)
    rolled = sample_path(x_T, tuned, sampler, model)
    finals = [  # hybrid m = K - j leaves the tuned path at t_j
        sample_path(rolled.state_at(j), base, sampler, model, start=j).states[-1].copy()
        for j in range(traj.K, -1, -1)
    ]
    return _evaluate_many(finals, data, eval_seed, N_PROJECTIONS)


def error_bound_report(
    traj: Trajectory,
    tuned: Optional[TunedTrajectory],
    sampler: SamplerConfig,
    model: GaussianMixtureOracle,
    n_paths: int,
    seed: int = 0,
    dense_K: int = DENSE_K,
) -> list:
    """Per-step pathwise error and the two sums that bound it.

    For each step i the report carries the mean distance between the coarse
    state entering checkpoint i-1 and the dense reference state there (the
    ``gap_profile`` row of checkpoint i-1), the accumulated square-rooted
    consistency losses of steps K..i, and the accumulated reference
    prediction-continuity terms. For the standard Gaussian oracle the model
    map is linear with slope sigma_t, so an inverse-Lipschitz constant
    1/sigma_{t_1} applies and the bound C * (loss sum + continuity sum) is
    reported and checked.
    """
    if not sampler.deterministic:
        raise ContractError("error bound analysis requires a deterministic sampler")
    sched = model.schedule
    if tuned is None:
        tuned = baseline_tuned(traj, sched, sampler.kind)
    pts = traj.points
    x_T = draw_start_states(model, n_paths, seed)
    coarse = generate_paths(x_T, tuned, sampler, model)
    reference = reference_path(x_T, model, dense_K, t_min=float(pts[0]), checkpoints=pts)
    gaps = gap_profile(coarse, reference).rows

    # per step l = 1..K: the consistency loss of the step the coarse rollout
    # took (with the tuned times it used), square-rooted, and the reference
    # prediction-continuity term
    root_losses, continuity = [], []
    for l in range(1, traj.K + 1):
        target = model.epsilon(coarse.state_at(l), pts[l])
        pred = model.epsilon(coarse.state_at(l - 1), _prediction_time(model, pts[l - 1]))
        loss, _ = _loss(pred.T, target.T)
        root_losses.append(sqrt(loss))
        d = model.epsilon(reference.state_at(l), pts[l])
        d -= model.epsilon(reference.state_at(l - 1), pts[l - 1])
        continuity.append(float(np.mean(_norms(d))))

    unit = np.allclose(model.means, 0) and np.allclose(model.scales, 1)
    C = 1.0 / sched.alpha_sigma(pts[1])[1] if unit and len(model.weights) == 1 else None

    rows = []
    for i in range(1, traj.K + 1):
        _, _, lhs, lhs_stderr, _ = gaps[i - 1]
        loss_sum = sum(root_losses[i - 1 :])
        cont_sum = sum(continuity[i - 1 :])
        row = {
            "step": i,
            "lhs": lhs,
            "lhs_stderr": lhs_stderr,
            "loss_sum": loss_sum,
            "continuity_sum": cont_sum,
            "lipschitz_C": C,
        }
        if C is not None:
            row["bound"] = C * (loss_sum + cont_sum)
            row["holds"] = lhs <= row["bound"] + 3.0 * lhs_stderr
        rows.append(row)
    return rows
