"""Solver steps: reduction identity, closed forms, rollout determinism."""

from dataclasses import replace
from math import exp, sqrt
from pathlib import Path

import numpy as np
import pytest

from _oracles import step_coefficient, t_of_alpha, t_of_sigma
from steptuner import (
    ContractError,
    DomainError,
    NoiseSchedule,
    SamplerConfig,
    baseline_tuned,
    ddim_step,
    ddim_step_baseline,
    dpm_solver2_step,
    load_config,
    make_trajectory,
    midpoint_time,
    sample_path,
    tune,
)
from steptuner.samplers import step_constants
from steptuner.trajectory import Trajectory, TunedTrajectory

CONFIGS = Path(__file__).parent.parent / "configs"

# Step coefficients for the pair of times with squared signal fractions
# 0.36 and 0.81 on the default schedule (single standard component), frozen
# from the closed forms rederived in this file's tests.
DDIM_COEF_036_081 = 0.8887119154832539
DPM2_COEF_036_081 = 1.0362833950523025


def _random_interval(rng, schedule):
    t_from = float(rng.uniform(1.0, schedule.T))
    t_to = float(rng.uniform(0.0, t_from - 0.5))
    return t_from, t_to


def test_reduction_identity_bitwise(gmm8_model, standard_model, rng):
    for model in (gmm8_model, standard_model):
        for _ in range(100):
            t_from, t_to = _random_interval(rng, model.schedule)
            x = rng.standard_normal((3, 2)) * rng.uniform(0.5, 2.0)
            a = ddim_step(x, t_from, t_to, t_from, model)
            b = ddim_step_baseline(x, t_from, t_to, model)
            assert np.array_equal(a, b)


def test_reduction_identity_bitwise_stochastic(gmm8_model, rng):
    for _ in range(50):
        t_from, t_to = _random_interval(rng, gmm8_model.schedule)
        x = rng.standard_normal((4, 2))
        noise = rng.standard_normal((4, 2))
        eta = float(rng.uniform(0.1, 1.0))
        a = ddim_step(x, t_from, t_to, t_from, gmm8_model, eta, noise)
        b = ddim_step_baseline(x, t_from, t_to, gmm8_model, eta, noise)
        assert np.array_equal(a, b)


def test_standard_gaussian_step_coefficient(standard_model, schedule, rng):
    x = rng.standard_normal((6, 2))
    for t_from, t_to in [(1000.0, 640.0), (500.0, 100.0), (90.0, 0.0)]:
        a_f, s_f = schedule.alpha_sigma(t_from)
        a_t, s_t = schedule.alpha_sigma(t_to)
        y = ddim_step_baseline(x, t_from, t_to, standard_model)
        c = a_t * a_f + s_t * s_f
        assert np.max(np.abs(y - c * x)) < 1e-12
        assert abs(c) <= 1.0  # cosine of an angle difference


def test_exact_conditioning_identity(standard_model, schedule, rng):
    # the sigma_tau solving coefficient == 1 makes the step the identity
    x = rng.standard_normal((5, 2))
    for t_from, t_to in [(1000.0, 640.0), (500.0, 250.0), (250.0, 62.5), (100.0, 10.0)]:
        a_f, s_f = schedule.alpha_sigma(t_from)
        a_t, s_t = schedule.alpha_sigma(t_to)
        sigma_star = (a_t - a_f) / (a_t * s_f - a_f * s_t)
        assert 0.0 < sigma_star < 1.0
        tau_star = t_of_sigma(schedule, sigma_star)
        assert 0.0 < tau_star <= schedule.T
        y = ddim_step(x, t_from, t_to, tau_star, standard_model)
        assert np.max(np.abs(y - x)) < 1e-12


def test_second_order_step_closer_to_identity(standard_model, schedule, rng):
    # times with alpha^2 = 0.36 (source) and 0.81 (destination)
    t_from = t_of_alpha(schedule, 0.6)
    t_to = t_of_alpha(schedule, 0.9)
    a_f, s_f = schedule.alpha_sigma(t_from)
    assert a_f**2 == pytest.approx(0.36, rel=1e-10)
    x = rng.standard_normal((4, 2))

    y1 = ddim_step_baseline(x, t_from, t_to, standard_model)
    c_ddim = float(np.median(y1 / x))
    assert c_ddim == pytest.approx(DDIM_COEF_036_081, rel=1e-12)
    assert c_ddim == pytest.approx(step_coefficient(schedule, t_from, t_to, s_f), rel=1e-12)

    s_mid = midpoint_time(schedule, t_from, t_to)
    y2 = dpm_solver2_step(x, t_from, t_to, t_from, s_mid, standard_model)
    c_dpm2 = float(np.median(y2 / x))
    assert c_dpm2 == pytest.approx(DPM2_COEF_036_081, rel=1e-12)

    # independent closed form for the two-evaluation coefficient
    lam_f = schedule.log_snr(t_from)
    lam_t = schedule.log_snr(t_to)
    h = lam_t - lam_f
    a_s, s_s = schedule.alpha_sigma(s_mid)
    a_t, s_t = schedule.alpha_sigma(t_to)
    cu = a_s / a_f - s_s * (exp(0.5 * h) - 1.0) * s_f
    c_manual = a_t / a_f - s_t * (exp(h) - 1.0) * s_s * cu
    assert c_dpm2 == pytest.approx(c_manual, rel=1e-12)

    assert abs(c_dpm2 - 1.0) < abs(c_ddim - 1.0)


def test_two_evaluation_step_continuity(standard_model, rng):
    x = rng.standard_normal((3, 2))
    t_from = 500.0
    d1 = np.max(np.abs(dpm_solver2_step(x, t_from, t_from - 0.2, t_from, t_from - 0.1, standard_model) - x))
    d2 = np.max(np.abs(dpm_solver2_step(x, t_from, t_from - 0.1, t_from, t_from - 0.05, standard_model) - x))
    assert d1 < 1e-8
    # at least first-order shrinkage; the midpoint rule is in fact faster
    assert d2 < 0.51 * d1


def test_linear_model_superposition(standard_model, rng):
    x = rng.standard_normal((1, 2))
    y = rng.standard_normal((1, 2))
    a, b = 1.7, -0.4
    for step in (
        lambda z: ddim_step(z, 600.0, 200.0, 450.0, standard_model),
        lambda z: dpm_solver2_step(z, 600.0, 200.0, 500.0, 330.0, standard_model),
    ):
        lhs = step(a * x + b * y)
        rhs = a * step(x) + b * step(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_eta_one_marginal_variance(standard_model, schedule):
    # one stochastic step from exact unit-variance states; the output
    # variance must match the closed-form update variance
    t_from, t_to = 500.0, 250.0
    a_f, s_f = schedule.alpha_sigma(t_from)
    a_t, s_t = schedule.alpha_sigma(t_to)
    sig_eta = (s_t / s_f) * sqrt(1.0 - a_f * a_f / (a_t * a_t))
    s_eff = sqrt(s_t * s_t - sig_eta * sig_eta)
    c_det = a_t / a_f - (a_t * s_f / a_f - s_eff) * s_f
    var_expected = c_det * c_det + sig_eta * sig_eta

    n = 100_000
    gen = np.random.default_rng(77)
    x = gen.standard_normal((n, 2))
    noise = gen.standard_normal((n, 2))
    y = ddim_step(x, t_from, t_to, t_from, standard_model, eta=1.0, noise=noise)
    var = y.var(axis=0, ddof=1)
    stderr = var_expected * sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - var_expected) < 3.0 * stderr)


def test_single_step_rollout_closed_form(standard_model, schedule, rng):
    traj = make_trajectory("uniform", 1, schedule)
    tuned = TunedTrajectory(
        base=traj, taus=np.array([schedule.T]), sampler_kind="ddim-family"
    )
    x_T = rng.standard_normal((10, 2))
    path = sample_path(x_T, tuned, SamplerConfig(), standard_model)
    a0, s0 = schedule.alpha_sigma(0.0)
    aT, sT = schedule.alpha_sigma(schedule.T)
    c = a0 * aT + s0 * sT
    assert np.max(np.abs(path.states[-1] - c * x_T)) < 1e-12


def test_rollout_baseline_matches_manual_loop(gmm8_model, schedule, rng):
    traj = make_trajectory("quadratic", 5, schedule)
    tuned = baseline_tuned(traj, schedule, "ddim-family")
    x_T = rng.standard_normal((8, 2))
    path = sample_path(x_T, tuned, SamplerConfig(), gmm8_model)
    x = x_T.copy()
    for i in range(5, 0, -1):
        x = ddim_step_baseline(x, traj.points[i], traj.points[i - 1], gmm8_model)
    assert np.array_equal(path.states[-1], x)
    assert np.array_equal(path.states[0], x_T)
    assert np.array_equal(path.state_at(5), x_T)
    assert np.array_equal(path.state_at(0), path.states[-1])


def test_rollout_deterministic(gmm8_model, schedule, rng):
    traj = make_trajectory("uniform", 4, schedule)
    tuned = baseline_tuned(traj, schedule, "ddim-family")
    x_T = rng.standard_normal((6, 2))
    cfg = SamplerConfig(eta=0.8, seed=5)
    p1 = sample_path(x_T, tuned, cfg, gmm8_model)
    p2 = sample_path(x_T, tuned, cfg, gmm8_model)
    assert np.array_equal(p1.states, p2.states)
    p3 = sample_path(x_T, tuned, SamplerConfig(eta=0.8, seed=6), gmm8_model)
    assert not np.array_equal(p1.states, p3.states)
    # a path started at t_j is the tail of the full one, noise included
    for j in range(5):
        tail = sample_path(p1.state_at(j), tuned, cfg, gmm8_model, start=j)
        assert np.array_equal(tail.states, p1.states[4 - j :])
        assert np.array_equal(tail.trajectory_points, traj.points[: j + 1])
    for start in (-1, 5):
        with pytest.raises(DomainError):
            sample_path(x_T, tuned, cfg, gmm8_model, start=start)


def test_dpm2_rollout_two_sites(standard_model, schedule, rng):
    traj = make_trajectory("uniform", 2, schedule, t_min=1.0)
    tuned = baseline_tuned(traj, schedule, "dpm-solver-2")
    x_T = rng.standard_normal((4, 2))
    path = sample_path(x_T, tuned, SamplerConfig(kind="dpm-solver-2"), standard_model)
    x = x_T.copy()
    for i in (2, 1):
        a, b = tuned.taus_for_step(i)
        x = dpm_solver2_step(x, traj.points[i], traj.points[i - 1], a, b, standard_model)
    assert np.array_equal(path.states[-1], x)


def test_step_domain_errors(gmm8_model, rng):
    x = rng.standard_normal((2, 2))
    with pytest.raises(DomainError):
        ddim_step(x, 100.0, 100.0, 50.0, gmm8_model)
    with pytest.raises(DomainError):
        ddim_step(x, 100.0, 200.0, 50.0, gmm8_model)
    with pytest.raises(DomainError):
        ddim_step(x, 100.0, 50.0, 0.0, gmm8_model)
    with pytest.raises(DomainError):
        ddim_step(x, 100.0, 50.0, 1001.0, gmm8_model)
    with pytest.raises(ContractError):
        ddim_step(x, 100.0, 50.0, 80.0, gmm8_model, eta=0.5, noise=None)
    with pytest.raises(DomainError):
        dpm_solver2_step(x, 100.0, 0.5, 100.0, 50.0, gmm8_model)  # below t_eps
    with pytest.raises(DomainError):
        dpm_solver2_step(x, 100.0, 50.0, -1.0, 70.0, gmm8_model)
    # candidate arrays: every time is checked, and one site at a time varies
    with pytest.raises(DomainError):
        ddim_step(x, 100.0, 50.0, np.array([80.0, 0.0]), gmm8_model)
    with pytest.raises(DomainError):
        dpm_solver2_step(x, 100.0, 50.0, np.array([90.0, 80.0]), np.array([70.0, 60.0]), gmm8_model)


def test_step_constants_cached_per_schedule_and_kind(schedule):
    # one interval under two schedules and both kinds: four sets of constants
    steep = NoiseSchedule(beta_max=0.03)
    for sched in (schedule, steep, schedule, steep):
        a_from, s_from = sched.alpha_sigma(300.0)
        a_to, s_to = sched.alpha_sigma(120.0)
        assert step_constants(sched, 300.0, 120.0, "ddim-family") == (
            a_from, s_from, a_to, s_to, 0.0, 0.0, 0.0
        )
        a_mid, s_mid = sched.alpha_sigma(midpoint_time(sched, 300.0, 120.0))
        h = sched.log_snr(120.0) - sched.log_snr(300.0)
        assert step_constants(sched, 300.0, 120.0, "dpm-solver-2") == (
            a_from, s_from, a_to, s_to, h, a_mid, s_mid
        )
    assert step_constants(schedule, 300.0, 120.0) != step_constants(steep, 300.0, 120.0)


def test_step_constants_do_not_cache_errors(schedule):
    # dpm-solver-2 below t_eps is rejected on every call, not only the first
    held = step_constants.cache_info().currsize
    for _ in range(3):
        with pytest.raises(DomainError):
            step_constants(schedule, 100.0, 0.5, "dpm-solver-2")
    assert step_constants.cache_info().currsize == held


def test_sequential_tune_builds_each_step_constants_once():
    # the rolled prefix steps reuse the constants their own search built
    cfg = load_config(CONFIGS / "gmm8_dpm2.json")
    schedule, model, traj, sampler = cfg.build()
    assert traj.K == 10 and cfg.tuner.strategy == "sequential"
    step_constants.cache_clear()
    tune(replace(cfg.tuner, batch=32, coarse_grid=3, refine_tol=50.0), traj, sampler, model)
    assert step_constants.cache_info().misses <= 10


def test_rollout_kind_mismatch(gmm8_model, schedule, rng):
    traj = make_trajectory("uniform", 2, schedule, t_min=1.0)
    tuned = baseline_tuned(traj, schedule, "dpm-solver-2")
    with pytest.raises(ContractError):
        sample_path(rng.standard_normal((2, 2)), tuned, SamplerConfig(), gmm8_model)


def test_sampler_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(kind="euler")
    with pytest.raises(DomainError):
        SamplerConfig(eta=1.5)
    with pytest.raises(DomainError):
        SamplerConfig(seed=-1)
    assert SamplerConfig(eta=0.0).deterministic
    assert not SamplerConfig(eta=0.3).deterministic
    assert SamplerConfig(kind="dpm-solver-2", eta=0.9).deterministic
