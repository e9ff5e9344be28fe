"""Noise schedule: closed form vs quadrature, monotonicity, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import log_alpha_quad, t_of_log_alpha
from steptuner import DomainError, NoiseSchedule

# Frozen from the quadrature oracle at the default parameters.
ALPHA_T_SQUARED = 4.3185749060341275e-05


def test_closed_form_matches_quadrature(schedule):
    for t in [0.5, 1.0, 10.0, 100.0, 250.0, 500.0, 640.0, 999.0, 1000.0]:
        alpha, _ = schedule.alpha_sigma(t)
        la = log_alpha_quad(schedule, t)
        assert np.log(alpha) == pytest.approx(la, rel=1e-10, abs=1e-15)


def test_terminal_signal_fraction_frozen(schedule):
    alpha_T, _ = schedule.alpha_sigma(schedule.T)
    assert alpha_T**2 == pytest.approx(ALPHA_T_SQUARED, rel=1e-12)
    # nearly fully noised, but not exactly
    assert 0.0 < alpha_T**2 < 1e-4


def test_endpoints(schedule):
    alpha0, sigma0 = schedule.alpha_sigma(0.0)
    assert alpha0 == 1.0
    assert sigma0 == 0.0


def test_vp_identity_dense_grid(schedule):
    t = np.linspace(0.0, schedule.T, 10_001)
    alpha, sigma = schedule.alpha_sigma(t)
    assert np.max(np.abs(alpha**2 + sigma**2 - 1.0)) < 1e-12


@given(st.floats(min_value=0.0, max_value=1000.0))
def test_vp_identity_property(t):
    schedule = NoiseSchedule()
    alpha, sigma = schedule.alpha_sigma(t)
    assert abs(alpha * alpha + sigma * sigma - 1.0) < 1e-12


@given(
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.01, max_value=1000.0),
)
def test_alpha_strictly_decreasing(t, dt):
    # dt is kept above float resolution so strict inequalities are meaningful
    schedule = NoiseSchedule()
    t2 = min(t + dt, schedule.T)
    if t2 - t < 0.01:
        return
    a1, s1 = schedule.alpha_sigma(t)
    a2, s2 = schedule.alpha_sigma(t2)
    assert a2 < a1
    assert s2 > s1


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-5, max_value=1.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=1e4),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)
def test_scalar_alpha_sigma_equals_array_element_bitwise(beta_min, spread, T, fractions):
    # a plain float takes a Python-arithmetic path; it must give the array
    # path's bits, at the endpoints and t_eps too
    schedule = NoiseSchedule(beta_min=beta_min, beta_max=beta_min * (1.0 + spread), T=T)
    ts = [0.0, schedule.t_eps, T] + [min(f * T, T) for f in fractions]
    alpha, sigma = schedule.alpha_sigma(np.array(ts))
    for j, t in enumerate(ts):
        for scalar in (t, np.float64(t)):
            a, s = schedule.alpha_sigma(scalar)
            assert type(a) is float and type(s) is float
            assert (a, s) == (alpha[j], sigma[j]), (t, a - alpha[j], s - sigma[j])
    for bad in (-1e-300, np.nextafter(T, np.inf), np.inf, -np.inf):
        with pytest.raises(DomainError, match=r"t must lie in \[0, "):
            schedule.alpha_sigma(float(bad))


def test_log_snr_strictly_decreasing(schedule):
    t = np.linspace(0.001, schedule.T, 5000)
    lam = schedule.log_snr(t)
    assert np.all(np.diff(lam) < 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1000.0))
def test_log_snr_round_trip(t):
    schedule = NoiseSchedule()
    lam = schedule.log_snr(t)
    t_back = schedule.t_from_log_snr(lam)
    assert abs(t_back - t) <= 1e-9 * schedule.T


def test_log_snr_round_trip_other_direction(schedule):
    for lam in [-5.0, -2.0, 0.0, 2.0, 5.0]:
        t = schedule.t_from_log_snr(lam)
        assert schedule.log_snr(t) == pytest.approx(lam, abs=1e-7)


def test_inverse_matches_quadratic_formula_oracle(schedule):
    T = schedule.T
    t = np.concatenate([[1e-8 * T, schedule.t_eps, T], np.geomspace(1e-8 * T, T, 400)])
    lam = schedule.log_snr(t)
    got = schedule.t_from_log_snr(lam)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    # log alpha = -1/2 log(1 + e^(-2 lambda)), since alpha^2 = sigmoid(2 lambda)
    ref = np.array([t_of_log_alpha(schedule, -0.5 * np.log1p(np.exp(-2.0 * v))) for v in lam])
    assert np.all(np.abs(got - ref) <= 1e-9 * ref)
    for k in range(3):  # a scalar gives a float equal to the array entry
        back = schedule.t_from_log_snr(float(lam[k]))
        assert isinstance(back, float) and back == got[k]
    assert schedule.t_from_log_snr(schedule.log_snr(T)) == T


@pytest.mark.parametrize(
    "sched",
    [NoiseSchedule(), NoiseSchedule(beta_min=0.01, beta_max=0.01)],
    ids=["default", "flat"],
)
def test_inverse_round_trip_tight(sched):
    # beta_min == beta_max has no quadratic term, which the oracle divides by
    T = sched.T
    t = np.concatenate([[1e-8 * T, sched.t_eps, T], np.geomspace(1e-8 * T, T, 2000)])
    back = sched.t_from_log_snr(sched.log_snr(t))
    assert np.all(np.abs(back - t) <= 1e-12 * t)
    assert np.all(back <= sched.T)
    for v in t[::50]:
        assert abs(sched.t_from_log_snr(float(sched.log_snr(v))) - v) <= 1e-12 * v


def test_sigma_accurate_near_zero(schedule):
    # sigma^2 = -expm1(2 log alpha); compare against the quadrature value
    for t in [1e-3, 1e-2, 0.1, 1.0]:
        _, sigma = schedule.alpha_sigma(t)
        la = log_alpha_quad(schedule, t)
        sigma_ref = np.sqrt(-np.expm1(2.0 * la))
        assert sigma == pytest.approx(sigma_ref, rel=1e-9)
        assert sigma > 0


def test_domain_errors(schedule):
    with pytest.raises(DomainError):
        schedule.alpha_sigma(-1.0)
    with pytest.raises(DomainError):
        schedule.alpha_sigma(schedule.T + 1.0)
    with pytest.raises(DomainError):
        schedule.log_snr(0.0)
    with pytest.raises(DomainError):
        schedule.t_from_log_snr(schedule.log_snr(schedule.T) - 1.0)
    for lam in [np.nan, np.inf, 400.0]:  # e^(-800) underflows, so t would be 0
        with pytest.raises(DomainError):
            schedule.t_from_log_snr(lam)
    with pytest.raises(DomainError):
        schedule.t_from_log_snr(np.array([0.0, np.nan]))
    t = 1e-8 * schedule.T
    assert schedule.t_from_log_snr(schedule.log_snr(t)) == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("t", [np.nan, np.array([500.0, np.nan])], ids=["scalar", "array"])
@pytest.mark.parametrize("method", ["alpha_sigma", "log_snr", "forward_sample"])
def test_nan_time_rejected(schedule, method, t):
    # NaN fails every comparison, so a range check written as "t < 0 or
    # t > T" lets it through and the coefficients come back NaN
    args = (np.ones(2), t, np.ones(2)) if method == "forward_sample" else (t,)
    with pytest.raises(DomainError, match=r"t must lie in \[0, "):
        getattr(schedule, method)(*args)


def test_construction_validation():
    with pytest.raises(DomainError):
        NoiseSchedule(beta_min=0.0)
    with pytest.raises(DomainError):
        NoiseSchedule(beta_min=0.03, beta_max=0.02)
    with pytest.raises(DomainError):
        NoiseSchedule(T=0.0)
    with pytest.raises(DomainError):
        NoiseSchedule(kind="cosine")


def test_forward_sample_exact(schedule, rng):
    x0 = rng.standard_normal((7, 3))
    eps = rng.standard_normal((7, 3))
    t = 321.0
    alpha, sigma = schedule.alpha_sigma(t)
    out = schedule.forward_sample(x0, t, eps)
    assert np.array_equal(out, alpha * x0 + sigma * eps)


def test_forward_sample_shape_mismatch(schedule, rng):
    with pytest.raises(DomainError):
        schedule.forward_sample(rng.standard_normal((4, 2)), 10.0, rng.standard_normal((3, 2)))


def test_t_eps_value(schedule):
    assert schedule.t_eps == pytest.approx(1e-3 * schedule.T)
