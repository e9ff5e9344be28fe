"""Optimization of per-step conditioning times.

For each step i of a trajectory, the tuner searches for the conditioning
time tau_i whose step output stays most consistent with the model: the
loss is the mean squared difference between the model's prediction at the
stepped state (evaluated at the next trajectory time) and its prediction
at the current state. ``StepLoss`` is that loss for one step, built once
and scored for many candidates. Its prefix decides how the current state
is built, which is all the two training strategies differ in:

  sequential - prefix = the times already tuned for steps K..i+1, so
               states are rolled from t_K and each step trains on the
               states it will actually see;
  parallel   - no prefix: states are exact forward samples at t_i, so all
               steps are independent and can be trained in any order.

All Monte Carlo draws use common random numbers: one (x0, eps) batch per
step, keyed by (seed, tune purpose, step) in blocks of rows, reused across
every candidate tau. Minimization is a coarse grid scan followed by
golden-section refinement; the untuned time is always a candidate, so the
tuned loss can never exceed the baseline loss under the training batch.

Every candidate is scored by one path, the site scorer that
``StepLoss.site`` builds once per site search. The scorer holds the step's
frozen state as the oracle's point-major array X = [1; x^T; -||x||^2 / 2]
(see ``oracle``), built once, and one workspace per pass width G that every
pass of that width writes over: the (D + 2, G n) point array of the G
stepped states and the oracle's output. A pass costs the candidates' time
table, the oracle evaluations of the step (X at the G times at once) and
of the prediction (the G n stepped points at one time), the step formula
written in place into the stepped point rows, and the loss reduction;
nothing is transposed or re-validated per candidate, and only the oracle
kernel's own logits and moments are allocated per evaluation. The coarse
grid goes through in passes of at most ``_PASS_ROWS`` = 8192 rows
(max(1, 8192 // batch) candidates), which bounds the workspace and those
temporaries. Each golden-section probe is a pass of one candidate, and
its table is the oracle's scalar-time one, which is cheaper to build than
a one-element array's and gives the same bits. So a probe costs its table
and the arithmetic of its rows; a fresh ``epsilon`` call per stage would
add its input check, transpose and new output to each of the probe's two
or three oracle evaluations, a fixed cost that at batch 1024 exceeds the
arithmetic. Each estimate equals the candidate's own evaluation through
``samplers.step`` bitwise, since the scorer and the sampler share the step
formula. With the first site of a two-evaluation step held, its stage-1
state is computed once per search of the second site; with the second
held, its time's table is built once per search of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericError, check_integer
from .oracle import GaussianMixtureOracle, OracleTimes
from .rng import PURPOSE_TUNE, check_seed
from .samplers import (
    SamplerConfig,
    _check_taus,
    _deterministic_part,
    _eta_scales,
    _midpoint_state,
    _midpoint_update,
    step,
    step_constants,
)
from .trajectory import Trajectory, TunedTrajectory, baseline_tuned

_GOLDEN = (sqrt(5.0) - 1.0) / 2.0

TUNER_STRATEGIES = ("sequential", "parallel")
TUNER_BOUNDS = ("interval", "wide")


@dataclass(frozen=True)
class TunerConfig:
    strategy: str = "sequential"
    batch: int = 4096
    coarse_grid: int = 33
    refine_tol: float = 0.01  # in t-units
    bounds: str = "interval"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in TUNER_STRATEGIES:
            raise DomainError(f"strategy: unknown tuner strategy {self.strategy!r}")
        if self.bounds not in TUNER_BOUNDS:
            raise DomainError(f"bounds: unknown bounds mode {self.bounds!r}")
        check_integer("batch", self.batch, 1)
        check_integer("coarse_grid", self.coarse_grid, 3)
        if not (self.refine_tol > 0):
            raise DomainError(f"refine_tol: must be positive, got {self.refine_tol}")
        check_seed(self.seed)


@dataclass(frozen=True)
class LossEstimate:
    value: float
    stderr: float
    batch: int


@dataclass(frozen=True)
class TuneRecord:
    """One optimized conditioning time (two per step for two-eval solvers)."""

    step: int
    t_site: float  # the untuned conditioning time at this evaluation site
    tau: float
    loss_baseline: float
    loss_tuned: float
    stderr: float
    boundary: bool
    fell_back: bool  # no candidate beat the untuned times, so the step kept them
    n_evals: int  # candidate conditioning times scored for this site


def _mean_stderr(per_row: np.ndarray) -> tuple:
    """Mean of per-row values along the last axis and its standard error (0
    for a single row): floats for one set of rows, lists for a stack of them."""
    n = per_row.shape[-1]
    # ndarray.mean's and np.std(ddof=1)'s arithmetic without their Python
    # wrappers, the deviations taken from the mean already computed
    mean = np.add.reduce(per_row, axis=-1, keepdims=True) / n
    if n > 1:
        d = per_row - mean
        d *= d
        stderr = np.sqrt(np.add.reduce(d, axis=-1) / (n - 1)) / sqrt(n)
    else:
        stderr = np.zeros_like(mean[..., 0])
    return mean[..., 0].tolist(), stderr.tolist()


def _sum_last(d: np.ndarray) -> np.ndarray:
    """np.sum(d, axis=-1) for a short last axis, as one add per column.

    numpy reduces a short trailing axis one output at a time, which costs
    far more than D - 1 whole-array adds. The columns are added left to
    right, which is the order numpy itself takes for D <= 7, so the two
    agree bitwise there; for D >= 8 numpy sums in pairwise blocks and the
    last bits can differ.
    """
    out = d[..., 0].copy()
    for j in range(1, d.shape[-1]):
        out += d[..., j]
    return out


def _prediction_time(model: GaussianMixtureOracle, t_to: float) -> OracleTimes:
    """The oracle's table of the time a step to t_to is scored at: t_to, or
    t_eps below it, since at t = 0 the model output is identically zero."""
    return model.times(max(t_to, model.schedule.t_eps))


def _loss(pred: np.ndarray, target: np.ndarray) -> tuple:
    """(mean, stderr) over points of the squared distance from pred to target.

    Both are point-major, (..., D, n) and broadcasting: the squared distance
    is summed over D in ``_sum_last``'s order, then ``_mean_stderr`` reduces
    the n points, so a (G, D, n) stack gives lists over G. Every loss the
    package reports, in the tuner and in ``error_bound_report``, is this.
    """
    d = pred - target
    d *= d
    return _mean_stderr(_sum_last(d.swapaxes(-1, -2)))


# Rows of one scoring pass: G candidates of a batch of n rows are scored
# together in passes of max(1, _PASS_ROWS // n) candidates, which bounds a
# site scorer's workspace.
_PASS_ROWS = 8192


class _Workspace(NamedTuple):
    """The buffers of one pass width G of a site scorer, over N point columns.

    Y is the (D + 2, G N) point array of the G stepped states, its point
    rows viewed as y, (G, D, N). One output buffer serves every oracle
    evaluation of a pass, as the out of ``_evaluate``: viewed as at_cands,
    (G, D, N), for an N-column point array at the candidates' table, and
    as at_one, (D, G N), for Y at one time, whose output is also viewed as
    pred, (G, D, N). The oracle kernel allocates its own logits and moments.
    """

    Y: np.ndarray
    y: np.ndarray
    at_cands: np.ndarray
    at_one: np.ndarray
    pred: np.ndarray


def _workspace(model: GaussianMixtureOracle, G: int, N: int) -> _Workspace:
    D = model.dim
    Y = np.empty((D + 2, G * N))
    Y[0] = 1.0
    at_one = np.empty((D, G * N))

    def by_point(rows: np.ndarray) -> np.ndarray:
        return rows.reshape(D, G, N).swapaxes(0, 1)

    # a one-candidate pass evaluates at a scalar-time table, without the G axis
    at_cands = at_one.reshape(((G,) if G > 1 else ()) + (D, N))
    return _Workspace(Y, by_point(Y[1 : D + 1]), at_cands, at_one, by_point(at_one))


class _SiteScorer:
    """Loss estimates of candidate times at site idx of a StepLoss, the other
    sites held at taus; see the module docstring for what a pass costs.

    Called with a 1-D array of times, it gives per target (each an (n, D)
    array) the candidates' estimates, in passes of at most ``_PASS_ROWS``
    rows. An eta-family step evaluates the frozen state X at the candidates
    and steps. A midpoint step varying its first site evaluates X at the
    candidates, writes the G stage-1 states into the stepped rows, evaluates
    them at the held time and steps; varying its second site, it evaluates
    the held stage-1 state U, built once, at the candidates and steps.
    """

    def __init__(self, loss: "StepLoss", idx: int, taus: Sequence[float], targets):
        model, sampler = loss.model, loss.sampler
        T, D = model.schedule.T, model.dim
        self.loss, self.model, self.T = loss, model, T
        self.c = c = step_constants(model.schedule, loss.t_from, loss.t_to, sampler.kind)
        X, self.n = model._points(loss.state)
        self.x = X[1 : D + 1]
        self.targets = [np.ascontiguousarray(t.T) for t in targets]
        self.spaces: dict = {}  # pass width -> _Workspace
        self.src, self.held, self.noise = X, None, None
        self.eta_family = sampler.kind == "ddim-family"
        if self.eta_family:
            self.s_to_eff, sig_eta = _eta_scales(c, sampler.eta)
            if sampler.eta > 0.0:
                self.noise = sig_eta * loss.step_noise.T
            return
        _check_taus(T, taus[1 - idx])
        if idx == 0:
            self.held = model.times(float(taus[1]))
            return
        self.src = U = np.empty_like(X)
        U[0] = 1.0
        _midpoint_state(self.x, c, model._evaluate(X, model.times(float(taus[0]))),
                        out=U[1 : D + 1])

    def _pass(self, chunk: np.ndarray) -> list:
        """Per target, (means, stderrs) over the G candidates of chunk."""
        G, model, c, x = len(chunk), self.model, self.c, self.x
        ws = self.spaces.get(G)
        if ws is None:
            ws = self.spaces[G] = _workspace(model, G, self.src.shape[1])
        y = ws.y
        table = model.times(float(chunk[0]) if G == 1 else chunk)
        eps = model._evaluate(self.src, table, out=ws.at_cands)
        if self.eta_family:
            _deterministic_part(x, c.a_from, c.s_from, c.a_to, self.s_to_eff, eps, out=y)
            if self.noise is not None:
                y += self.noise
        elif self.held is not None:
            _midpoint_state(x, c, eps, out=y)
            model._evaluate(ws.Y, self.held, out=ws.at_one)
            _midpoint_update(x, c, ws.pred, out=y)
        else:
            _midpoint_update(x, c, eps, out=y)
        model._evaluate(ws.Y, self.loss.t_pred, out=ws.at_one)
        pred = ws.pred[..., : self.n]
        return [_loss(pred, target) for target in self.targets]

    def __call__(self, values) -> list:
        values = np.asarray(values, dtype=float)
        _check_taus(self.T, values)
        batch = self.loss.batch
        per_pass = max(1, _PASS_ROWS // batch)
        out = [[] for _ in self.targets]
        for start in range(0, len(values), per_pass):
            chunk = values[start : start + per_pass]
            for estimates, (means, stderrs) in zip(out, self._pass(chunk)):
                for tau, value, stderr in zip(chunk, means, stderrs):
                    if not isfinite(value):
                        raise NumericError(f"non-finite loss at conditioning time {tau}")
                    estimates.append(LossEstimate(value=value, stderr=stderr, batch=batch))
        return out


class StepLoss:
    """Consistency loss of step i on one frozen batch, scored per candidate.

    The batch is one ``model.draw`` keyed by (seed, tune purpose, i): per
    row the mixture component, x0, eps, then the solver noise of every
    step the row takes when the sampler is stochastic. With prefix None
    the states are exact forward samples at t_i. A prefix lists the
    conditioning times of steps K..i+1 in rollout order, one site tuple
    per step; the states are then forward samples at t_K rolled through
    those steps.
    ``site(idx, taus)`` scores many candidate times of one evaluation site
    at once, the step from t_i to t_{i-1} on the same batch every time.
    Calling the object with one site tuple scores that tuple through
    ``site``.
    """

    def __init__(
        self,
        i: int,
        traj: Trajectory,
        model: GaussianMixtureOracle,
        sampler: SamplerConfig = SamplerConfig(),
        batch: int = 4096,
        seed: int = 0,
        prefix: Optional[Sequence[Sequence[float]]] = None,
    ):
        if not (1 <= i <= traj.K):
            raise DomainError(f"step index must lie in [1, {traj.K}], got {i}")
        check_integer("batch", batch, 1)
        if prefix is not None and len(prefix) != traj.K - i:
            raise DomainError(
                f"rolled loss at step {i} needs {traj.K - i} prefix entries, "
                f"got {len(prefix)}"
            )
        prefix = [] if prefix is None else prefix
        self.model = model
        self.sampler = sampler
        pts = traj.points
        self.t_from = pts[i]
        self.t_to = pts[i - 1]
        sched = model.schedule
        needs_noise = not sampler.deterministic
        n_noise = (len(prefix) + 1) if needs_noise else 0
        x0, normals = model.draw(batch, (seed, PURPOSE_TUNE, i), extra=1 + n_noise)
        eps, noises = normals[0], normals[1:]
        x = sched.forward_sample(x0, pts[i + len(prefix)], eps)
        for idx, taus in enumerate(prefix):
            j = traj.K - idx
            noise = noises[idx] if needs_noise else None
            x = step(x, pts[j], pts[j - 1], taus, model, sampler, noise)
        self.state = x
        self.x0 = x0
        self.step_noise = noises[-1] if needs_noise else None
        self.target = model.epsilon(x, self.t_from)
        self.t_pred = _prediction_time(model, self.t_to)
        self.batch = batch

    def site(self, idx: int, taus: Sequence[float]) -> Callable:
        """Scorer of candidate times at evaluation site idx, the others held at taus.

        It maps a 1-D array of G times to their G loss estimates; each equals
        the call with its one site tuple bitwise. Build one per site search:
        what does not depend on the candidates is built with it, once.
        """
        scorer = _SiteScorer(self, idx, taus, (self.target,))
        return lambda values: scorer(values)[0]

    def __call__(self, taus: Sequence[float]) -> LossEstimate:
        return self.site(0, taus)([taus[0]])[0]

    def _true_noise(self) -> np.ndarray:
        """The batch's true noise, the denoising target of the diagnostic."""
        alpha_i, sigma_i = self.model.schedule.alpha_sigma(self.t_from)
        return (self.state - alpha_i * self.x0) / sigma_i


def optimize_tau(
    losses: Callable[[np.ndarray], Sequence[float]],
    bounds: tuple,
    coarse_grid: int = 33,
    tol: float = 0.01,
) -> tuple:
    """Scalar minimization: coarse grid scan, then golden-section refinement.

    losses maps a 1-D array of times to their losses and must be
    deterministic (frozen common random numbers). The whole grid goes
    through it in one call, each refinement probe as a one-element array.
    The refinement stops once the bracket is no wider than tol, or once
    floats cannot split it further. Returns (tau_star, loss_at_star,
    boundary_flag); the flag is set when the minimum sits on an end of the
    search interval.
    """
    lo, hi = bounds
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
    check_integer("coarse_grid", coarse_grid, 2)

    def loss(tau):
        return losses(np.array([tau]))[0]

    grid = np.linspace(lo, hi, coarse_grid)
    vals = np.array(losses(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise NumericError(f"non-finite loss at tau = {bad}")
    j = int(np.argmin(vals))
    a = grid[max(0, j - 1)]
    b = grid[min(coarse_grid - 1, j + 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = loss(d)
    refined = 0.5 * (a + b)
    f_refined = loss(refined)
    if not np.isfinite(f_refined):
        raise NumericError(f"non-finite loss at tau = {refined}")
    candidates = [(f_refined, refined)] + list(zip(vals, grid))
    best_val, best_tau = min(candidates, key=lambda p: p[0])
    eps = 1e-12 * max(1.0, abs(hi))
    flag = best_tau <= lo + eps or best_tau >= hi - eps
    return float(best_tau), float(best_val), bool(flag)


def _search_bounds(bounds: str, traj: Trajectory, i: int, t_eps: float) -> tuple:
    pts = traj.points
    if bounds == "interval":
        return max(pts[i - 1], t_eps), pts[i]
    hi = pts[i + 1] if i < traj.K else pts[traj.K]
    return t_eps, hi


def tune(
    cfg: TunerConfig,
    traj: Trajectory,
    sampler: SamplerConfig,
    model: GaussianMixtureOracle,
) -> tuple:
    """Optimize every conditioning time; returns (TunedTrajectory, records).

    Sequential strategy fixes times from step K down to 1, rolling training
    states through the times already chosen; parallel trains each step on
    exact forward samples. Two-evaluation solvers tune their two times per
    step by coordinate descent (first the source-site time against the
    untuned midpoint, then the midpoint-site time given the first).
    """
    sched = model.schedule
    untuned = baseline_tuned(traj, sched, sampler.kind)
    records: list = []  # step-ascending: each step's records go in front
    chosen: list = []  # per-step site tuples, rollout order K..i+1
    for i in range(traj.K, 0, -1):
        loss = StepLoss(
            i, traj, model, sampler, cfg.batch, cfg.seed,
            prefix=chosen if cfg.strategy == "sequential" else None,
        )
        bounds = _search_bounds(cfg.bounds, traj, i, sched.t_eps)
        base = tuple(untuned.taus_for_step(i))
        sites = list(base)
        scored, n_evals, flags = [], [], []  # per site: {time: LossEstimate}, count, flag
        for idx in range(len(base)):
            scores, probes = loss.site(idx, sites), []

            def site_losses(values):
                estimates = scores(values)
                probes.extend(zip(values, estimates))
                return [est.value for est in estimates]

            sites[idx], _, flag = optimize_tau(
                site_losses, bounds, cfg.coarse_grid, cfg.refine_tol
            )
            scored.append(dict(probes))
            n_evals.append(len(probes))
            flags.append(flag)
        # the last search scored the tuned times; the first held the other
        # sites at their untuned times, so it scored the untuned ones
        # whenever its grid held the untuned time
        tuned_est = scored[-1][sites[-1]]
        base_est = scored[0].get(base[0])
        if base_est is None:  # a grid that misses it, as under bounds "wide"
            base_est = loss(base)
            n_evals[0] += 1
        fell_back = base_est.value <= tuned_est.value
        if fell_back:  # the untuned times are always in the candidate set
            sites, tuned_est = base, base_est
        records[:0] = [
            TuneRecord(
                step=i, t_site=float(t), tau=float(tau),
                loss_baseline=base_est.value, loss_tuned=tuned_est.value,
                stderr=tuned_est.stderr, boundary=flag and not fell_back,
                fell_back=fell_back, n_evals=n,
            )
            for t, tau, n, flag in zip(base, sites, n_evals, flags)
        ]
        chosen.append(tuple(sites))
    tuned = TunedTrajectory(
        base=traj, taus=[r.tau for r in records], sampler_kind=sampler.kind,
        bounds=[_search_bounds(cfg.bounds, traj, r.step, sched.t_eps) for r in records],
    )
    return tuned, records


def diagnostic_loss_curves(
    i: int,
    traj: Trajectory,
    model: GaussianMixtureOracle,
    batch: int,
    seed: int,
    n_grid: int = 101,
) -> dict:
    """Consistency loss and denoising loss on a shared tau grid, with their
    standard errors ("consistency_stderr", "denoising_stderr").

    Both curves score the same frozen batch of exact forward samples at
    t_i, where the denoising target is the batch's true noise, over the
    interval (max(t_{i-1}, t_eps), t_i). The grid goes through one site
    scorer of the tuner once: one step and one prediction serve both
    targets.
    """
    loss = StepLoss(i, traj, model, batch=batch, seed=seed)
    lo, hi = _search_bounds("interval", traj, i, model.schedule.t_eps)
    grid = np.linspace(lo, hi, n_grid)
    curves = {"tau_grid": grid}
    scored = _SiteScorer(loss, 0, (hi,), (loss.target, loss._true_noise()))(grid)
    for name, estimates in zip(("consistency", "denoising"), scored):
        curves[name] = np.array([e.value for e in estimates])
        curves[name + "_stderr"] = np.array([e.stderr for e in estimates])
    return curves
