"""Optimization of per-step conditioning times.

For each step i of a trajectory, the tuner searches for the conditioning
time tau_i whose step output stays most consistent with the model: the
loss is the mean squared difference between the model's prediction at the
stepped state (evaluated at the next trajectory time) and its prediction
at the current state. Two training modes differ only in how the current
state is built:

  sequential - states are rolled from t_K down using already-tuned times,
               so each step trains on the states it will actually see;
  parallel   - states are exact forward samples at t_i, so all steps are
               independent and can be trained in any order.

All Monte Carlo draws use common random numbers: one (x0, eps) batch per
step, derived per sample from (seed, step, sample index), reused across
every candidate tau. Minimization is a coarse grid scan followed by
golden-section refinement; the untuned time is always a candidate, so the
tuned loss can never exceed the baseline loss under the training batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericError
from .oracle import GaussianMixtureOracle
from .rng import PURPOSE_TUNE, check_seed
from .samplers import SamplerConfig, ddim_step, dpm_solver2_step
from .trajectory import (
    Trajectory,
    TunedTrajectory,
    baseline_tuned,
    evaluations_per_step,
)

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
        if self.batch < 1:
            raise DomainError(f"batch: must be >= 1, got {self.batch}")
        if self.coarse_grid < 3:
            raise DomainError(f"coarse_grid: must be >= 3, got {self.coarse_grid}")
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


def _apply_step(x, t_from, t_to, taus, model, sampler: SamplerConfig, noise):
    if sampler.kind == "ddim-family":
        return ddim_step(x, t_from, t_to, taus[0], model, sampler.eta, noise)
    return dpm_solver2_step(x, t_from, t_to, taus[0], taus[1], model)


class _LossContext:
    """Frozen batch and state for one step's loss evaluations."""

    def __init__(
        self,
        i: int,
        traj: Trajectory,
        model: GaussianMixtureOracle,
        sampler: SamplerConfig,
        batch: int,
        seed: int,
        strategy: str,
        prefix_taus: Optional[Sequence[Sequence[float]]] = None,
    ):
        if not (1 <= i <= traj.K):
            raise DomainError(f"step index must lie in [1, {traj.K}], got {i}")
        self.i = i
        self.model = model
        self.sampler = sampler
        pts = traj.points
        self.t_from = pts[i]
        self.t_to = pts[i - 1]
        sched = model.schedule
        # when the destination is t = 0 the model output is identically
        # zero there, so the consistency target is evaluated at t_eps
        self.t_cond = max(self.t_to, sched.t_eps)
        needs_noise = sampler.kind == "ddim-family" and sampler.eta > 0.0
        n_prefix = traj.K - i if strategy == "sequential" else 0
        n_noise = (n_prefix + 1) if needs_noise else 0
        # sample j of step i: component, x0, eps, then the solver noise of
        # each step it is rolled through
        x0, normals = model.draw(batch, (seed, PURPOSE_TUNE, i), extra=1 + n_noise)
        eps, noises = normals[0], normals[1:]
        x = sched.forward_sample(x0, pts[traj.K] if strategy == "sequential" else pts[i], eps)
        if strategy == "sequential":
            prefix_taus = list(prefix_taus or [])
            if len(prefix_taus) != traj.K - i:
                raise DomainError(
                    f"sequential loss at step {i} needs {traj.K - i} tuned "
                    f"prefix entries, got {len(prefix_taus)}"
                )
            for idx, j in enumerate(range(traj.K, i, -1)):
                noise = noises[idx] if needs_noise else None
                x = _apply_step(
                    x, pts[j], pts[j - 1], prefix_taus[idx], model, sampler, noise
                )
        self.state = x
        self.x0 = x0
        self.step_noise = noises[-1] if needs_noise else None
        self.target = model.epsilon(x, self.t_from)
        self.batch = batch

    def _score(self, taus: Sequence[float], target: np.ndarray) -> LossEstimate:
        """Mean squared distance of the stepped state's prediction to target."""
        y = _apply_step(
            self.state, self.t_from, self.t_to, taus, self.model, self.sampler,
            self.step_noise,
        )
        d = self.model.epsilon(y, self.t_cond) - target
        per_sample = np.sum(d * d, axis=1)
        value = float(per_sample.mean())
        stderr = (
            float(per_sample.std(ddof=1) / sqrt(self.batch)) if self.batch > 1 else 0.0
        )
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at conditioning times {taus}")
        return LossEstimate(value=value, stderr=stderr, batch=self.batch)

    def loss(self, taus: Sequence[float]) -> LossEstimate:
        return self._score(taus, self.target)

    def denoising_loss(self, taus: Sequence[float]) -> LossEstimate:
        """Same stepped state scored against the batch's true noise.

        Diagnostic companion to :meth:`loss`; meaningful when the state is
        an exact forward sample, where the true noise is the posterior
        target the model itself regresses to.
        """
        alpha_i, sigma_i = self.model.schedule.alpha_sigma(self.t_from)
        return self._score(taus, (self.state - alpha_i * self.x0) / sigma_i)


def loss_sequential(
    i: int,
    tau,
    tuned_prefix: Sequence,
    traj: Trajectory,
    model: GaussianMixtureOracle,
    batch: int,
    seed: int,
    sampler: Optional[SamplerConfig] = None,
) -> LossEstimate:
    """Loss of candidate tau at step i on states rolled with tuned_prefix.

    tuned_prefix lists the conditioning times of steps K..i+1 in rollout
    order, one sequence per step (one entry each for single-eval solvers).
    """
    sampler = sampler or SamplerConfig()
    ctx = _LossContext(
        i, traj, model, sampler, batch, seed, "sequential",
        prefix_taus=[_as_site_tuple(p) for p in tuned_prefix],
    )
    return ctx.loss(_as_site_tuple(tau))


def loss_parallel(
    i: int,
    tau,
    traj: Trajectory,
    model: GaussianMixtureOracle,
    batch: int,
    seed: int,
    sampler: Optional[SamplerConfig] = None,
) -> LossEstimate:
    """Loss of candidate tau at step i on exact forward samples at t_i."""
    sampler = sampler or SamplerConfig()
    ctx = _LossContext(i, traj, model, sampler, batch, seed, "parallel")
    return ctx.loss(_as_site_tuple(tau))


def _as_site_tuple(tau) -> tuple:
    if np.isscalar(tau):
        return (float(tau),)
    return tuple(float(v) for v in tau)


def optimize_tau(
    loss: Callable[[float], float],
    bounds: tuple,
    coarse_grid: int = 33,
    tol: float = 0.01,
) -> tuple:
    """Scalar minimization: coarse grid scan, then golden-section refinement.

    Returns (tau_star, loss_at_star, boundary_flag); the flag is set when
    the minimum sits on an end of the search interval. The loss callable
    must be deterministic (frozen common random numbers).
    """
    lo, hi = bounds
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
    grid = np.linspace(lo, hi, coarse_grid)
    vals = np.array([loss(g) for g in grid], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise NumericError(f"non-finite loss at tau = {bad}")
    j = int(np.argmin(vals))
    a = grid[max(0, j - 1)]
    b = grid[min(coarse_grid - 1, j + 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol:
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


def _search_bounds(cfg: TunerConfig, traj: Trajectory, i: int, t_eps: float) -> tuple:
    pts = traj.points
    if cfg.bounds == "interval":
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
    per_step = evaluations_per_step(sampler.kind)
    # one slot per evaluation site, step-ascending: per_step*(i-1) + site
    taus = np.empty(per_step * traj.K)
    bounds = [None] * len(taus)
    records = [None] * len(taus)
    chosen: list = []  # per-step site tuples, rollout order K..i+1
    untuned = baseline_tuned(traj, sched, sampler.kind)
    for i in range(traj.K, 0, -1):
        ctx = _LossContext(
            i, traj, model, sampler, cfg.batch, cfg.seed, cfg.strategy,
            prefix_taus=chosen if cfg.strategy == "sequential" else None,
        )
        lo, hi = _search_bounds(cfg, traj, i, sched.t_eps)
        baseline_sites = tuple(untuned.taus_for_step(i))
        base_est = ctx.loss(baseline_sites)
        sites = list(baseline_sites)
        flags = []
        for site_idx in range(per_step):
            def site_loss(tau, _idx=site_idx):
                probe = list(sites)
                probe[_idx] = tau
                return ctx.loss(tuple(probe)).value

            tau_star, _, flag = optimize_tau(
                site_loss, (lo, hi), cfg.coarse_grid, cfg.refine_tol
            )
            sites[site_idx] = tau_star
            flags.append(flag)
        tuned_est = ctx.loss(tuple(sites))
        if base_est.value <= tuned_est.value:
            # the untuned times are always in the candidate set
            sites = list(baseline_sites)
            flags = [False] * per_step
            tuned_est = base_est
        for site_idx in range(per_step):
            slot = per_step * (i - 1) + site_idx
            taus[slot] = sites[site_idx]
            bounds[slot] = (lo, hi)
            records[slot] = TuneRecord(
                step=i,
                t_site=float(baseline_sites[site_idx]),
                tau=float(sites[site_idx]),
                loss_baseline=base_est.value,
                loss_tuned=tuned_est.value,
                stderr=tuned_est.stderr,
                boundary=bool(flags[site_idx]),
            )
        chosen.append(tuple(sites))
    tuned = TunedTrajectory(
        base=traj, taus=taus, bounds=bounds, sampler_kind=sampler.kind
    )
    return tuned, records


def diagnostic_loss_curves(
    i: int,
    traj: Trajectory,
    model: GaussianMixtureOracle,
    batch: int,
    seed: int,
    n_grid: int = 101,
    bounds: str = "interval",
    state_mode: str = "forward",
    prefix_taus: Optional[Sequence] = None,
    sampler: Optional[SamplerConfig] = None,
) -> dict:
    """Consistency loss and denoising loss on a shared tau grid.

    Both curves use the same frozen batch. state_mode selects exact forward
    samples at t_i ("forward", where the denoising target is the batch's
    true noise) or states rolled with prefix_taus ("rolled").
    """
    sampler = sampler or SamplerConfig()
    ctx = _LossContext(
        i, traj, model, sampler, batch, seed,
        "parallel" if state_mode == "forward" else "sequential",
        prefix_taus=[_as_site_tuple(p) for p in (prefix_taus or [])]
        if state_mode != "forward"
        else None,
    )
    cfg = TunerConfig(bounds=bounds)
    lo, hi = _search_bounds(cfg, traj, i, model.schedule.t_eps)
    grid = np.linspace(lo, hi, n_grid)
    consistency = np.array([ctx.loss((g,)).value for g in grid])
    denoising = np.array([ctx.denoising_loss((g,)).value for g in grid])
    return {"tau_grid": grid, "consistency": consistency, "denoising": denoising}
