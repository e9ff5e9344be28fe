"""Sampling trajectories: the time discretization walked by a solver.

A trajectory is the ordered grid t_0 < t_1 < ... < t_K used by a K-step
sampler; a tuned trajectory additionally carries the optimized conditioning
times, one per network evaluation, plus the search bounds they came from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, check_integer
from .schedule import NoiseSchedule

# a time within POINT_TOL * T of a trajectory point counts as that point:
# a tuned file's trajectory must match the config's, and a gap checkpoint
# snaps onto a dense point, within it
POINT_TOL = 1e-9

# the sampler kinds and the model evaluations each takes per step
EVALUATIONS_PER_STEP = {"ddim-family": 1, "dpm-solver-2": 2}


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray  # shape (K+1,), strictly increasing, [t_min, ..., T]
    kind: str
    K: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.shape != (self.K + 1,):
            raise ContractError(
                f"trajectory needs K+1 = {self.K + 1} points, got {pts.shape}"
            )
        if np.any(np.diff(pts) <= 0):
            raise ContractError("trajectory points must be strictly increasing")


@dataclass(frozen=True)
class TunedTrajectory:
    base: Trajectory
    taus: np.ndarray  # one entry per network evaluation, step-ascending
    bounds: list = field(default_factory=list)  # (lo, hi) per tau
    sampler_kind: str = "ddim-family"

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        per_step = evaluations_per_step(self.sampler_kind)
        if taus.shape != (per_step * self.base.K,):
            raise ContractError(
                f"{self.sampler_kind} with K={self.base.K} needs "
                f"{per_step * self.base.K} conditioning times, got {taus.shape}"
            )
        if not np.all(np.isfinite(taus) & (taus > 0)):
            raise DomainError(f"conditioning times must be finite and positive, got {taus}")
        if len(self.bounds) not in (0, len(taus)):
            raise ContractError(f"{len(self.bounds)} bounds for {len(taus)} taus")
        for tau, (lo, hi) in zip(taus, self.bounds):
            if not (lo - 1e-12 <= tau <= hi + 1e-12):
                raise ContractError(
                    f"conditioning time {tau} outside its search interval "
                    f"[{lo}, {hi}]"
                )

    def taus_for_step(self, i: int) -> np.ndarray:
        """Conditioning times for step i (1-based), site order a then b."""
        per_step = evaluations_per_step(self.sampler_kind)
        return self.taus[per_step * (i - 1) : per_step * i]


def evaluations_per_step(sampler_kind: str) -> int:
    try:
        return EVALUATIONS_PER_STEP[sampler_kind]
    except KeyError:
        raise DomainError(f"unknown sampler kind: {sampler_kind!r}") from None


def baseline_tuned(
    traj: Trajectory, schedule: NoiseSchedule, sampler_kind: str = "ddim-family"
) -> TunedTrajectory:
    """Tuned trajectory whose conditioning times are the untuned defaults:
    each step's source time, then (two-evaluation steps) its log-SNR midpoint.
    """
    t_from = traj.points[1:]
    if evaluations_per_step(sampler_kind) == 1:
        taus = t_from.copy()
    else:
        mid = midpoint_time(schedule, t_from, traj.points[:-1])
        taus = np.column_stack([t_from, mid]).ravel()
    return TunedTrajectory(base=traj, taus=taus, sampler_kind=sampler_kind)


def midpoint_time(schedule: NoiseSchedule, t_from, t_to):
    """Time halfway between t_from and t_to in log-SNR (scalars or arrays)."""
    lam_from = schedule.log_snr(t_from)
    lam_to = schedule.log_snr(np.maximum(t_to, schedule.t_eps))
    return schedule.t_from_log_snr(0.5 * (lam_from + lam_to))


def make_trajectory(
    kind: str, K: int, schedule: NoiseSchedule, t_min: float = 0.0
) -> Trajectory:
    """Grid of K+1 times from t_min to T for the given spacing family.

    uniform:   t_i = t_min + (T - t_min) * i/K
    quadratic: t_i = t_min + (T - t_min) * (i/K)^2   (dense near t = 0)
    log-snr:   equal lambda spacing; endpoints forced to t_min and T
    """
    check_integer("K", K, 1)
    T = schedule.T
    if not (0 <= t_min < T):
        raise DomainError(f"t_min: must lie in [0, T), got {t_min}")
    frac = np.arange(K + 1) / K
    if kind == "uniform":
        pts = t_min + (T - t_min) * frac
    elif kind == "quadratic":
        pts = t_min + (T - t_min) * frac**2
    elif kind == "log-snr":
        lam_hi = schedule.log_snr(max(t_min, schedule.t_eps))
        lam_lo = schedule.log_snr(T)
        lams = np.maximum(lam_hi + (lam_lo - lam_hi) * frac, lam_lo)  # rounding at i = K
        pts = schedule.t_from_log_snr(lams)
        pts[0], pts[-1] = t_min, T
    else:
        raise DomainError(f"kind: unknown trajectory kind {kind!r}")
    pts[-1] = T
    return Trajectory(points=pts, kind=kind, K=K)


def tuned_to_json(tuned: TunedTrajectory, schedule: NoiseSchedule) -> str:
    """Serialize a tuned trajectory as a JSON document of (t, tau) pairs."""
    untuned = baseline_tuned(tuned.base, schedule, tuned.sampler_kind)
    pairs = []
    for i in range(1, tuned.base.K + 1):
        for site, tau in zip(untuned.taus_for_step(i), tuned.taus_for_step(i)):
            pairs.append({"step": i, "t": float(site), "tau": float(tau)})
    doc = {
        "sampler_kind": tuned.sampler_kind,
        "trajectory": {
            "kind": tuned.base.kind,
            "K": tuned.base.K,
            "points": [float(p) for p in tuned.base.points],
        },
        "pairs": pairs,
        "bounds": [[float(lo), float(hi)] for lo, hi in tuned.bounds],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def tuned_from_json(doc) -> TunedTrajectory:
    """The TunedTrajectory in tuned_to_json's text, or in its parsed document."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    traj = Trajectory(
        points=np.asarray(doc["trajectory"]["points"], dtype=float),
        kind=doc["trajectory"]["kind"],
        K=int(doc["trajectory"]["K"]),
    )
    taus = np.asarray([p["tau"] for p in doc["pairs"]], dtype=float)
    bounds = [tuple(b) for b in doc.get("bounds", [])]
    return TunedTrajectory(
        base=traj, taus=taus, bounds=bounds, sampler_kind=doc["sampler_kind"]
    )
