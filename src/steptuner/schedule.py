"""Variance-preserving noise schedule and its log-SNR reparameterization.

The schedule assigns to every continuous time t in [0, T] a pair
(alpha_t, sigma_t) with alpha_t^2 + sigma_t^2 = 1, where alpha_t is the
surviving signal fraction of the forward noising process and sigma_t the
accumulated noise scale:

    alpha_t = exp(-1/2 * int_0^t beta(s) ds),  sigma_t = sqrt(1 - alpha_t^2),
    beta(s) = beta_min + (beta_max - beta_min) * s / T.

The integral of the linear rate has a closed form, so no quadrature is
needed. The log signal-to-noise ratio lambda(t) = log(alpha_t / sigma_t)
is strictly decreasing on (0, T]. Since alpha_t^2 = sigmoid(2 lambda) and
log alpha_t is quadratic in t, lambda is inverted in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

# Smallest time used when a positive evaluation time is required
# (lambda grids, loss conditioning at the final step), as a fraction of T.
T_EPS_FRACTION = 1e-3


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear variance-preserving schedule over t in [0, T].

    beta_min and beta_max are rates per unit time; with the defaults and
    T = 1000 each unit of t corresponds to one step of the conventional
    1000-step discrete schedule.
    """

    beta_min: float = 1e-4
    beta_max: float = 0.02
    T: float = 1000.0
    kind: str = "linear-vp"

    def __post_init__(self) -> None:
        if self.kind != "linear-vp":
            raise DomainError(f"kind: unknown schedule kind {self.kind!r}")
        if not (0 < self.beta_min < np.inf):
            raise DomainError(f"beta_min: must be positive and finite, got {self.beta_min}")
        if not (self.beta_min <= self.beta_max < np.inf):
            raise DomainError(
                f"beta_max: must be finite and >= beta_min, got {self.beta_max}"
            )
        if not (0 < self.T < np.inf):
            raise DomainError(f"T: must be positive and finite, got {self.T}")

    def build(self) -> NoiseSchedule:
        """The schedule itself, for callers that build a config's blocks in
        turn (``cfg.schedule.build()``, then ``cfg.oracle.build(schedule)``)."""
        return self

    @property
    def t_eps(self) -> float:
        return T_EPS_FRACTION * self.T

    def _log_alpha(self, t):
        # closed form of -1/2 int_0^t beta(s) ds for the linear rate
        return -0.5 * (
            self.beta_min * t + (self.beta_max - self.beta_min) * t * t / (2.0 * self.T)
        )

    def _check_t(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not ((t >= 0) & (t <= self.T)).all():
            raise DomainError(f"t must lie in [0, {self.T}], got {t}")
        return t

    def alpha_sigma(self, t):
        """(alpha_t, sigma_t) for scalar or array t in [0, T]."""
        if isinstance(t, float):
            # plain-float check and log alpha: the same IEEE operations as
            # the array path, without numpy's 0-d array overhead
            if not 0 <= t <= self.T:
                raise DomainError(f"t must lie in [0, {self.T}], got {t}")
            la = self._log_alpha(t)
            return float(np.exp(la)), float(np.sqrt(-np.expm1(2.0 * la)))
        t = self._check_t(t)
        la = self._log_alpha(t)
        alpha = np.exp(la)
        # 1 - alpha^2 via expm1 keeps sigma accurate near t = 0
        sigma = np.sqrt(-np.expm1(2.0 * la))
        if np.isscalar(t) or t.ndim == 0:
            return float(alpha), float(sigma)
        return alpha, sigma

    def log_snr(self, t):
        """lambda(t) = log(alpha_t / sigma_t); requires t > 0."""
        t = self._check_t(t)
        if (t <= 0).any():
            raise DomainError("log_snr is infinite at t = 0")
        la = self._log_alpha(t)
        lam = la - 0.5 * np.log(-np.expm1(2.0 * la))
        if np.isscalar(t) or t.ndim == 0:
            return float(lam)
        return lam

    def t_from_log_snr(self, lam):
        """Unique t in (0, T] with log_snr(t) = lam, for scalar or array lam.

        c = -2 log alpha_t = log(1 + e^(-2 lam)) = a t^2 + b t, solved for
        the positive root in a form that does not cancel and reduces to
        c / b when beta_min == beta_max.
        """
        lam = np.asarray(lam, dtype=float)
        lam_lo = self._log_snr_T
        if not (np.all(np.isfinite(lam)) and np.all(lam >= lam_lo)):
            raise DomainError(f"lambda {lam} outside invertible range [{lam_lo}, inf)")
        c = np.logaddexp(0.0, -2.0 * lam)
        a = (self.beta_max - self.beta_min) / (2.0 * self.T)
        b = self.beta_min
        # rounding may put log_snr(T) a hair past T
        t = np.minimum(2.0 * c / (b + np.sqrt(b * b + 4.0 * a * c)), self.T)
        if np.any(t <= 0):
            raise DomainError(f"lambda {lam} too large: t underflows to 0")
        if t.ndim == 0:
            return float(t)
        return t

    @cached_property
    def _log_snr_T(self) -> float:
        return self.log_snr(self.T)

    def forward_sample(self, x0: np.ndarray, t: float, eps: np.ndarray) -> np.ndarray:
        """x_t = alpha_t * x0 + sigma_t * eps for caller-supplied noise."""
        x0 = np.asarray(x0, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if x0.shape != eps.shape:
            raise DomainError(
                f"x0 shape {x0.shape} does not match eps shape {eps.shape}"
            )
        alpha, sigma = self.alpha_sigma(t)
        return alpha * x0 + sigma * eps
