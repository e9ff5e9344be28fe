"""Few-step reverse-process solvers.

Two families are provided. The eta-family covers the deterministic
first-order solver (eta = 0) through the fully stochastic ancestral one
(eta = 1) with a single step function. The two-evaluation log-SNR midpoint
solver gives a second-order alternative. Every step accepts conditioning
times that may differ from the trajectory times: the solver coefficients
always come from the trajectory endpoints, only the time fed to the
noise-prediction model is replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, sqrt
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError
from .oracle import GaussianMixtureOracle
from .rng import PURPOSE_PATHS, check_seed, per_sample_map
from .trajectory import EVALUATIONS_PER_STEP, TunedTrajectory, evaluations_per_step, midpoint_time

SAMPLER_KINDS = tuple(EVALUATIONS_PER_STEP)


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ddim-family"
    eta: float = 0.0
    seed: int = 0  # noise seed, used only when eta > 0

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise DomainError(f"kind: unknown sampler kind {self.kind!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise DomainError(f"eta: must lie in [0, 1], got {self.eta}")
        check_seed(self.seed)

    @property
    def deterministic(self) -> bool:
        return self.kind == "dpm-solver-2" or self.eta == 0.0


@dataclass(frozen=True)
class SamplePath:
    """States recorded along one rollout, ordered from t_K down to t_0."""

    states: np.ndarray  # (K+1, n, D); states[0] is the supplied x_T
    trajectory_points: np.ndarray

    def state_at(self, i: int) -> np.ndarray:
        """State at trajectory index i (i = K is the start)."""
        K = len(self.trajectory_points) - 1
        return self.states[K - i]


class StepConstants(NamedTuple):
    """Schedule values of one step from t_from to t_to.

    None of them depends on a conditioning time: they are a function of the
    schedule, the two trajectory times and the sampler kind alone, which
    ``step_constants`` caches. The last three are set for two-evaluation
    steps only.
    """

    a_from: float
    s_from: float
    a_to: float
    s_to: float
    h: float = 0.0  # lambda(t_to) - lambda(t_from)
    a_mid: float = 0.0  # alpha and sigma at the log-SNR midpoint time
    s_mid: float = 0.0


@lru_cache(maxsize=1024)
def step_constants(
    schedule, t_from: float, t_to: float, kind: str = "ddim-family"
) -> StepConstants:
    """The constants of one step of the given sampler kind, checking its times.

    Cached on (schedule, t_from, t_to, kind): a step taken at many
    conditioning times, or by many rollouts, builds its constants once. A
    rejected interval raises on every call.
    """
    if not (t_to < t_from):
        raise DomainError(f"step requires t_to < t_from, got {t_to} >= {t_from}")
    a_from, s_from = schedule.alpha_sigma(t_from)
    a_to, s_to = schedule.alpha_sigma(t_to)
    if evaluations_per_step(kind) == 1:
        return StepConstants(a_from, s_from, a_to, s_to)
    if t_to < schedule.t_eps:
        raise DomainError(
            f"two-evaluation step needs t_to >= {schedule.t_eps} for log-SNR, got {t_to}"
        )
    h = schedule.log_snr(t_to) - schedule.log_snr(t_from)
    a_mid, s_mid = schedule.alpha_sigma(midpoint_time(schedule, t_from, t_to))
    return StepConstants(a_from, s_from, a_to, s_to, h, a_mid, s_mid)


def _check_taus(T: float, *taus) -> None:
    for tau in taus:
        if not np.all((0.0 < tau) & (tau <= T)):
            raise DomainError(f"conditioning time must lie in (0, T], got {tau}")


def _update(x, ratio: float, coef: float, eps, out=None):
    """ratio * x - coef * eps: every solver update and stage is this expression.

    Sharing it is what makes the rollout, the tuner's scorer and the dense
    reference produce bit-identical arithmetic; do not reassociate. x and
    eps may be in either layout, (n, D) or point-major (..., D, n), as long
    as they broadcast. The result goes to out, which may be x itself, or
    else to the eps term's new array, which has its shape.
    """
    shift = coef * eps
    scaled = np.multiply(ratio, x, out=out)
    return np.subtract(scaled, shift, out=shift if out is None else out)


def _deterministic_part(x, a_from, s_from, a_to, s_to_eff, eps_hat, out=None):
    """The eta-family update without its noise, from the prediction eps_hat at x."""
    return _update(x, a_to / a_from, a_to * s_from / a_from - s_to_eff, eps_hat, out)


def _eta_scales(c: StepConstants, eta: float) -> tuple:
    """(s_to_eff, sig_eta) of an eta-family step: the sigma its deterministic
    part lands on and the scale of its noise; (s_to, 0) at eta = 0.

    Standard eta-interpolation between the deterministic and ancestral
    updates; at eta = 1 sig_eta is the ancestral posterior noise scale.
    """
    if eta == 0.0:
        return c.s_to, 0.0
    ratio = 1.0 - (c.a_from * c.a_from) / (c.a_to * c.a_to)
    sig_eta = eta * (c.s_to / c.s_from) * sqrt(max(0.0, ratio))
    return sqrt(max(0.0, c.s_to * c.s_to - sig_eta * sig_eta)), sig_eta


def ddim_step(
    x: np.ndarray,
    t_from: float,
    t_to: float,
    tau,
    model: GaussianMixtureOracle,
    eta: float = 0.0,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One eta-family step from t_from to t_to, conditioning the model at tau.

    tau may be a 1-D array of G candidate times; the result then stacks the
    G steps of the (n, D) state x as (G, n, D).
    """
    c = step_constants(model.schedule, t_from, t_to, "ddim-family")
    _check_taus(model.schedule.T, tau)
    if eta > 0.0 and noise is None:
        raise ContractError("eta > 0 requires a noise array")
    s_to_eff, sig_eta = _eta_scales(c, eta)
    y = _deterministic_part(x, c.a_from, c.s_from, c.a_to, s_to_eff, model.epsilon(x, tau))
    if eta > 0.0:
        y += sig_eta * noise
    return y


def ddim_step_baseline(
    x: np.ndarray,
    t_from: float,
    t_to: float,
    model: GaussianMixtureOracle,
    eta: float = 0.0,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The plain solver step: conditioning time equal to the source time."""
    return ddim_step(x, t_from, t_to, t_from, model, eta, noise)


def _midpoint_state(x, c: StepConstants, eps, out=None):
    """Stage 1 of the two-evaluation step: the state u at the log-SNR
    midpoint, from the prediction eps at x (see ``_update`` for out)."""
    return _update(x, c.a_mid / c.a_from, c.s_mid * (exp(0.5 * c.h) - 1.0), eps, out)


def _midpoint_update(x, c: StepConstants, eps, out=None):
    """Stage 2: the step from x, from the prediction eps at the midpoint state u."""
    return _update(x, c.a_to / c.a_from, c.s_to * (exp(c.h) - 1.0), eps, out)


def dpm_solver2_step(
    x: np.ndarray,
    t_from: float,
    t_to: float,
    tau_a,
    tau_b,
    model: GaussianMixtureOracle,
) -> np.ndarray:
    """One log-SNR midpoint step with two model evaluations.

    Baseline conditioning is tau_a = t_from and tau_b = the midpoint time;
    tuning replaces only those two arguments, never the coefficients.
    """
    c = step_constants(model.schedule, t_from, t_to, "dpm-solver-2")
    _check_taus(model.schedule.T, tau_a, tau_b)
    u = _midpoint_state(x, c, model.epsilon(x, tau_a))
    return _midpoint_update(x, c, model.epsilon(u, tau_b))


def step(
    x: np.ndarray,
    t_from: float,
    t_to: float,
    taus,
    model: GaussianMixtureOracle,
    sampler: SamplerConfig,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One step of the sampler's kind, conditioning its sites at taus.

    taus holds one conditioning time per evaluation site (see
    ``TunedTrajectory.taus_for_step``); noise is required when the sampler
    is stochastic.
    """
    if sampler.kind == "ddim-family":
        return ddim_step(x, t_from, t_to, taus[0], model, sampler.eta, noise)
    return dpm_solver2_step(x, t_from, t_to, taus[0], taus[1], model)


def sample_path(
    x_T: np.ndarray,
    tuned: TunedTrajectory,
    sampler: SamplerConfig,
    model: GaussianMixtureOracle,
    start: Optional[int] = None,
) -> SamplePath:
    """Roll a batch of states from t_K down to t_0, recording every stop.

    With start = j, x_T is the state at t_j and only steps j..1 are
    rolled, so the path holds the j + 1 stops from t_j down.

    For stochastic sampling the noise of step i comes in blocks of
    ``BLOCK`` rows: the rows of block b are one ``standard_normal`` call
    of the generator keyed by (sampler seed, paths purpose, i, b), so a
    row's noise does not depend on the batch size. Start states use step 0
    of the same purpose, so the two never share a stream.
    """
    if tuned.sampler_kind != sampler.kind:
        raise ContractError(
            f"tuned trajectory is for {tuned.sampler_kind!r}, sampler is "
            f"{sampler.kind!r}"
        )
    x = np.atleast_2d(np.asarray(x_T, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError("x_T must be finite")
    K = tuned.base.K if start is None else start
    if not (0 <= K <= tuned.base.K):
        raise DomainError(f"start must lie in [0, {tuned.base.K}], got {start}")
    pts = tuned.base.points[: K + 1]
    states = np.empty((K + 1,) + x.shape)
    states[0] = x
    for i in range(K, 0, -1):
        noise = None
        if not sampler.deterministic:
            noise = np.empty_like(x)

            def fill(rng: np.random.Generator, rows: slice) -> None:
                noise[rows] = rng.standard_normal(noise[rows].shape)

            per_sample_map(fill, x.shape[0], (sampler.seed, PURPOSE_PATHS, i))
        x = step(x, pts[i], pts[i - 1], tuned.taus_for_step(i), model, sampler, noise)
        states[K - i + 1] = x
    return SamplePath(states=states, trajectory_points=pts)
