"""Tuning losses and search: closed forms, CRN, dominance, determinism."""

import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reconstruct_tune_batch, step_coefficient, t_of_sigma
from steptuner import (
    DomainError,
    GaussianMixtureOracle,
    NumericError,
    SamplerConfig,
    StepLoss,
    TunerConfig,
    baseline_tuned,
    diagnostic_loss_curves,
    make_trajectory,
    optimize_tau,
    tune,
)
import steptuner
from steptuner import analysis as analysis_module
from steptuner import tuner as tuner_module
from steptuner.samplers import step
from steptuner.trajectory import midpoint_time


def _closed_form_parallel_loss(schedule, traj, i, tau, x):
    """(sigma_cond * c(tau) - sigma_i)^2 * mean ||x||^2 for the linear model."""
    t_from, t_to = traj.points[i], traj.points[i - 1]
    t_cond = max(t_to, schedule.t_eps)
    _, s_from = schedule.alpha_sigma(t_from)
    _, s_cond = schedule.alpha_sigma(t_cond)
    _, s_tau = schedule.alpha_sigma(tau)
    c = step_coefficient(schedule, t_from, t_to, s_tau)
    msq = float(np.mean(np.sum(x * x, axis=1)))
    return (s_cond * c - s_from) ** 2 * msq


def test_parallel_loss_closed_form_exact_batch(standard_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    i, batch, seed = 5, 512, 7
    x0, eps = reconstruct_tune_batch(standard_model, batch, seed, i)
    x = schedule.forward_sample(x0, traj.points[i], eps)
    loss = StepLoss(i, traj, standard_model, batch=batch, seed=seed)
    for tau in [traj.points[i], 205.0, 161.0]:
        expected = _closed_form_parallel_loss(schedule, traj, i, tau, x)
        est = loss((tau,))
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.batch == batch
        assert est.value >= 0.0
        assert est.stderr >= 0.0


def test_parallel_loss_population_within_stderr(standard_model, schedule):
    # mean ||x||^2 = dim in population for the unit-variance model
    traj = make_trajectory("quadratic", 10, schedule)
    i, tau = 6, 300.0
    est = StepLoss(i, traj, standard_model, batch=8192, seed=3)((tau,))
    t_from, t_to = traj.points[i], traj.points[i - 1]
    _, s_from = schedule.alpha_sigma(t_from)
    _, s_cond = schedule.alpha_sigma(max(t_to, schedule.t_eps))
    _, s_tau = schedule.alpha_sigma(tau)
    c = step_coefficient(schedule, t_from, t_to, s_tau)
    population = (s_cond * c - s_from) ** 2 * 2.0
    assert abs(est.value - population) < 3.0 * est.stderr


def test_sequential_loss_closed_form_with_prefix(standard_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    i, batch, seed = 8, 256, 11
    prefix = [(traj.points[10] - 5.0,), (traj.points[9] - 7.0,)]
    x0, eps = reconstruct_tune_batch(standard_model, batch, seed, i)
    x = schedule.forward_sample(x0, traj.points[10], eps)
    gamma = 1.0
    for idx, taus in zip([10, 9], prefix):
        _, s_tau = schedule.alpha_sigma(taus[0])
        gamma *= step_coefficient(schedule, traj.points[idx], traj.points[idx - 1], s_tau)
    expected = _closed_form_parallel_loss(schedule, traj, i, 300.0, gamma * x)
    est = StepLoss(i, traj, standard_model, batch=batch, seed=seed, prefix=prefix)((300.0,))
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_sequential_equals_parallel_at_final_step(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 6, schedule)
    rolled = StepLoss(6, traj, gmm8_model, batch=512, seed=5, prefix=[])
    forward = StepLoss(6, traj, gmm8_model, batch=512, seed=5)
    for tau in [traj.points[6], 700.0, 901.5]:
        a = rolled((tau,))
        b = forward((tau,))
        assert a.value == b.value
        assert a.stderr == b.stderr


def test_sequential_prefix_length_checked(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 6, schedule)
    with pytest.raises(DomainError):
        StepLoss(4, traj, gmm8_model, batch=64, seed=0, prefix=[(900.0,)])
    with pytest.raises(DomainError):
        StepLoss(0, traj, gmm8_model, batch=64, seed=0)
    with pytest.raises(DomainError):
        StepLoss(7, traj, gmm8_model, batch=64, seed=0)
    for batch in (0, -1):
        with pytest.raises(DomainError, match="batch"):
            StepLoss(3, traj, gmm8_model, batch=batch, seed=0)


def test_parallel_evaluation_order_irrelevant(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 5, schedule)
    taus = {i: 0.5 * (traj.points[i] + traj.points[i - 1]) for i in range(1, 6)}
    first = {
        i: StepLoss(i, traj, gmm8_model, batch=256, seed=2)((taus[i],)).value
        for i in (3, 1, 5, 2, 4)
    }
    second = {
        i: StepLoss(i, traj, gmm8_model, batch=256, seed=2)((taus[i],)).value
        for i in (1, 2, 3, 4, 5)
    }
    assert first == second


def test_stderr_shrinks_with_batch(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    e1 = StepLoss(5, traj, gmm8_model, batch=2048, seed=3)((200.0,))
    e2 = StepLoss(5, traj, gmm8_model, batch=4096, seed=3)((200.0,))
    assert e2.stderr / e1.stderr == pytest.approx(1.0 / sqrt(2.0), abs=0.12)


def test_baseline_loss_strictly_positive_on_mixture(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    for i in range(1, 11):
        est = StepLoss(i, traj, gmm8_model, batch=1024, seed=0)((traj.points[i],))
        assert est.value > 0.0


@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_step_loss_common_random_numbers(gmm8_model, schedule, eta):
    # the search relies on this: one StepLoss scores every candidate on the
    # same frozen batch, so a value does not depend on what was asked before
    traj = make_trajectory("quadratic", 5, schedule)
    sampler = SamplerConfig(eta=eta, seed=9)
    i, probe = 3, (120.0,)
    for prefix in (None, [(950.0,), (700.0,)]):
        args = (i, traj, gmm8_model, sampler, 500, 4, prefix)
        loss = StepLoss(*args)
        for tau in (traj.points[i], 60.0, 200.0, 120.0, 90.0):
            loss((tau,))
        after, fresh = loss(probe), StepLoss(*args)(probe)
        assert (after.value, after.stderr) == (fresh.value, fresh.stderr)
        again = StepLoss(*args)
        assert _scalar_loss(loss, probe, loss._true_noise()) == _scalar_loss(
            again, probe, again._true_noise()
        )


def _scalar_loss(loss, taus, target=None):
    """The loss at one site tuple, stepped and scored one candidate at a time,
    against target (by default the consistency target)."""
    model = loss.model
    y = step(loss.state, loss.t_from, loss.t_to, taus, model, loss.sampler, loss.step_noise)
    target = loss.target if target is None else target
    d = model.epsilon(y, max(loss.t_to, model.schedule.t_eps)) - target
    per_row = np.sum(d * d, axis=1)
    n = len(per_row)
    stderr = float(per_row.std(ddof=1) / sqrt(n)) if n > 1 else 0.0
    return float(per_row.mean()), stderr


@pytest.mark.parametrize(
    "kind, eta, site, prefixed",
    [
        ("ddim-family", 0.0, 0, False),
        ("ddim-family", 0.0, 0, True),
        ("ddim-family", 0.7, 0, False),
        ("ddim-family", 0.7, 0, True),
        ("dpm-solver-2", 0.0, 0, False),
        ("dpm-solver-2", 0.0, 0, True),
        ("dpm-solver-2", 0.0, 1, False),
        ("dpm-solver-2", 0.0, 1, True),
    ],
)
@pytest.mark.parametrize("batch", [1, 3000])
def test_batched_site_scores_equal_per_candidate_scores(
    gmm8_model, schedule, kind, eta, site, prefixed, batch
):
    # batch 3000 makes passes of two candidates, so seven candidates take
    # four passes, the last one short; a one-row batch must match too
    traj = make_trajectory("quadratic", 5, schedule, t_min=schedule.t_eps)
    sampler = SamplerConfig(kind=kind, eta=eta, seed=4)
    untuned = baseline_tuned(traj, schedule, kind)
    i = 3
    # conditioning times held off their untuned values
    prefix = [tuple(untuned.taus_for_step(k) - 20.0) for k in (5, 4)] if prefixed else None
    held = list(untuned.taus_for_step(i) - 9.0)
    loss = StepLoss(i, traj, gmm8_model, sampler, batch=batch, seed=6, prefix=prefix)
    values = np.linspace(traj.points[i - 1], traj.points[i], 7)
    estimates = loss.site(site, held)(values)
    assert len(estimates) == 7
    for value, est in zip(values, estimates):
        probe = list(held)
        probe[site] = value
        assert (est.value, est.stderr) == _scalar_loss(loss, probe)
        assert est == loss(tuple(probe))


def test_dpm2_first_site_builds_held_table_once(gmm8_model, schedule, monkeypatch):
    # while the first site varies, the held midpoint-site time gets one
    # oracle table per site however many passes score the candidates
    traj = make_trajectory("quadratic", 5, schedule, t_min=schedule.t_eps)
    loss = StepLoss(3, traj, gmm8_model, SamplerConfig(kind="dpm-solver-2"), batch=3000, seed=6)
    held = float(baseline_tuned(traj, schedule, "dpm-solver-2").taus_for_step(3)[1]) - 9.0
    built = []
    real = GaussianMixtureOracle.times

    def counting(model, t):
        built.append(t)
        return real(model, t)

    monkeypatch.setattr(GaussianMixtureOracle, "times", counting)
    values = np.linspace(traj.points[2], traj.points[3], 7)
    estimates = loss.site(0, (traj.points[3], held))(values)  # four passes
    assert sum(np.ndim(t) == 0 and t == held for t in built) == 1, built
    monkeypatch.undo()
    for value, est in zip(values, estimates):
        assert est == loss((value, held))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=2),
    D=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sum_last_equals_numpy_sum_for_short_axes(shape, D, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(tuple(shape) + (D,)) * np.exp(rng.uniform(-30.0, 30.0, D))
    assert np.array_equal(tuner_module._sum_last(d), np.sum(d, axis=-1))
    assert np.array_equal(analysis_module._norms(d), np.linalg.norm(d, axis=-1))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=1),
    n=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mean_stderr_equals_numpy_mean_and_std(shape, n, seed):
    per_row = np.random.default_rng(seed).exponential(size=tuple(shape) + (n,))
    stderr = per_row.std(axis=-1, ddof=1) / sqrt(n) if n > 1 else np.zeros(shape)
    want = (per_row.mean(axis=-1).tolist(), stderr.tolist())
    assert tuner_module._mean_stderr(per_row) == want


def _per_point(losses, bounds, coarse_grid=33, tol=0.01):
    """optimize_tau with every candidate scored in a call of its own."""
    def one_at_a_time(taus):
        return [value for tau in taus for value in losses(np.array([tau]))]

    return optimize_tau(one_at_a_time, bounds, coarse_grid, tol)


@pytest.mark.parametrize("kind, strategy", [
    ("ddim-family", "sequential"), ("ddim-family", "parallel"),
    ("dpm-solver-2", "sequential"), ("dpm-solver-2", "parallel"),
])
def test_tune_records_same_when_grid_scanned_per_point(gmm8_model, schedule, monkeypatch, kind, strategy):
    traj = make_trajectory("quadratic", 4, schedule, t_min=schedule.t_eps)
    cfg = TunerConfig(strategy=strategy, batch=3000, coarse_grid=9, refine_tol=0.5, seed=2)
    sampler = SamplerConfig(kind=kind)
    batched = tune(cfg, traj, sampler, gmm8_model)
    monkeypatch.setattr(tuner_module, "optimize_tau", _per_point)
    per_point = tune(cfg, traj, sampler, gmm8_model)
    assert np.array_equal(batched[0].taus, per_point[0].taus)
    assert batched[1] == per_point[1]


def test_optimizer_scores_grid_in_one_call_then_single_points():
    calls = []

    def losses(taus):
        calls.append(np.array(taus))
        return (np.asarray(taus) - 370.0) ** 2

    optimize_tau(losses, (0.0, 1000.0), 33, 0.01)
    assert np.array_equal(calls[0], np.linspace(0.0, 1000.0, 33))
    assert len(calls) > 1
    assert all(c.shape == (1,) for c in calls[1:])


def test_optimizer_quadratic_recovery():
    tau_star, val, flag = optimize_tau(lambda t: (t - 370.0) ** 2, (0.0, 1000.0), 33, 0.01)
    assert abs(tau_star - 370.0) <= 0.01
    assert val <= 1e-4
    assert not flag


def test_optimizer_monotone_boundary():
    tau_star, _, flag = optimize_tau(lambda t: t, (5.0, 50.0), 17, 0.01)
    assert tau_star == 5.0
    assert flag
    tau_star, _, flag = optimize_tau(lambda t: -t, (5.0, 50.0), 17, 0.01)
    assert tau_star == 50.0
    assert flag


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=10.0, max_value=990.0))
def test_optimizer_quadratic_property(vertex):
    tau_star, _, flag = optimize_tau(lambda t: (t - vertex) ** 2, (0.0, 1000.0), 33, 0.01)
    assert abs(tau_star - vertex) <= 0.011
    assert not flag


def test_optimizer_invalid_bounds():
    with pytest.raises(DomainError):
        optimize_tau(lambda t: t, (5.0, 5.0), 9, 0.1)


@pytest.mark.parametrize("coarse_grid", [-1, 0, 1])
def test_optimizer_rejects_grid_below_two_points(coarse_grid):
    with pytest.raises(DomainError, match="coarse_grid"):
        optimize_tau(lambda t: t, (5.0, 50.0), coarse_grid, 0.1)
    assert optimize_tau(lambda t: t, (5.0, 50.0), 2, 0.1)[0] == 5.0


def test_refinement_ends_when_floats_cannot_split_the_bracket():
    # a tolerance below the spacing of floats must not stall the search;
    # run apart, so a regression fails on the timeout instead of hanging
    code = """
from steptuner import (
    NoiseSchedule, SamplerConfig, TunerConfig, gmm8, make_trajectory, optimize_tau, tune,
)
for tol in (1e-20, 0.0, -1.0):
    tau, _, _ = optimize_tau(lambda t: (t - 370.0) ** 2, (100.0, 900.0), 9, tol)
    assert abs(tau - 370.0) < 1e-9, tau
schedule = NoiseSchedule()
model = gmm8(schedule)
traj = make_trajectory("quadratic", 2, schedule)
tune(TunerConfig(batch=64, refine_tol=1e-20), traj, SamplerConfig(), model)
"""
    src = str(Path(steptuner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_optimizer_nonfinite_loss_names_point():
    def f(t):
        return np.where(np.asarray(t) > 500.0, np.nan, 1.0)

    with pytest.raises(NumericError) as err:
        optimize_tau(f, (0.0, 1000.0), 9, 0.1)
    assert "tau" in str(err.value)


def test_optimizer_finds_analytic_minimizer(standard_model, schedule):
    # at this step the population minimizer is interior, and the linear
    # model makes the MC loss proportional to the population loss, so the
    # argmin is batch-independent
    traj = make_trajectory("quadratic", 10, schedule)
    i = 9
    t_from, t_to = traj.points[i], traj.points[i - 1]
    _, s_from = schedule.alpha_sigma(t_from)
    _, s_cond = schedule.alpha_sigma(t_to)
    a_f, _ = schedule.alpha_sigma(t_from)
    a_t, s_t = schedule.alpha_sigma(t_to)
    A = a_t / a_f
    B = a_t * s_from / a_f - s_t
    sigma_star = (A - s_from / s_cond) / B
    assert 0.0 < sigma_star < 1.0
    tau_expected = t_of_sigma(schedule, sigma_star)
    assert t_to < tau_expected < t_from

    loss = StepLoss(i, traj, standard_model, batch=256, seed=1)

    def f(taus):
        return [e.value for e in loss.site(0, (t_from,))(taus)]

    tau_star, _, flag = optimize_tau(f, (t_to, t_from), 33, 0.01)
    assert abs(tau_star - tau_expected) <= 0.05
    assert not flag


def test_optimizer_boundary_when_minimizer_infeasible(standard_model, schedule):
    # at this step the population minimizer lies outside the interval, so
    # the search must return the boundary and flag it
    traj = make_trajectory("quadratic", 10, schedule)
    i = 5
    t_from, t_to = traj.points[i], traj.points[i - 1]

    loss = StepLoss(i, traj, standard_model, batch=256, seed=1)

    def f(taus):
        return [e.value for e in loss.site(0, (t_from,))(taus)]

    tau_star, _, flag = optimize_tau(f, (t_to, t_from), 33, 0.01)
    assert tau_star == t_to
    assert flag


def test_optimizer_matches_dense_grid_on_mixture(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    i = 5
    lo, hi = traj.points[i - 1], traj.points[i]

    loss = StepLoss(i, traj, gmm8_model, batch=1024, seed=0)

    def f(taus):
        return [e.value for e in loss.site(0, (hi,))(taus)]

    tau_star, _, _ = optimize_tau(f, (lo, hi), 33, 0.01)
    dense = np.linspace(lo, hi, 1001)
    vals = np.array(f(dense))
    cell = (hi - lo) / 1000.0
    assert abs(tau_star - dense[int(vals.argmin())]) <= cell + 1e-9


def test_tune_dominance_and_record_shape(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 6, schedule)
    cfg = TunerConfig(batch=512, coarse_grid=17, refine_tol=0.1, seed=0)
    tuned, records = tune(cfg, traj, SamplerConfig(), gmm8_model)
    assert tuned.taus.shape == (6,)
    assert len(records) == 6
    assert [r.step for r in records] == [1, 2, 3, 4, 5, 6]
    for r in records:
        assert r.loss_tuned <= r.loss_baseline
        assert r.stderr >= 0.0
        assert r.t_site == traj.points[r.step]
        # a step that keeps its untuned time says so; any other step beat it
        assert r.fell_back == (r.loss_tuned == r.loss_baseline)
        assert r.tau == r.t_site or not r.fell_back
        # the grid, at least one golden-section probe, and the refined point
        assert r.n_evals >= cfg.coarse_grid + 2
    for tau, (lo, hi) in zip(tuned.taus, tuned.bounds):
        assert lo - 1e-9 <= tau <= hi + 1e-9
    # step-ascending bounds alignment with the interval mode
    for i in range(1, 7):
        lo, hi = tuned.bounds[i - 1]
        assert hi == traj.points[i]


def test_tune_fallback_is_recorded(gmm8_model, schedule):
    # at this seed no candidate beats the untuned time of step 2
    traj = make_trajectory("quadratic", 10, schedule)
    cfg = TunerConfig(batch=512, coarse_grid=17, refine_tol=0.1, seed=1)
    tuned, records = tune(cfg, traj, SamplerConfig(), gmm8_model)
    assert [r.step for r in records if r.fell_back] == [2]
    r = records[1]
    assert (r.tau, r.loss_tuned, r.boundary) == (r.t_site, r.loss_baseline, False)
    assert tuned.taus[1] == traj.points[2]


@pytest.mark.parametrize("kind, t_min", [("ddim-family", 0.0), ("dpm-solver-2", 1.0)])
def test_tune_wide_bounds_rescores_missed_baseline(gmm8_model, schedule, monkeypatch, kind, t_min):
    # wide search grids run from t_eps to t_{i+1}, so they miss the untuned
    # time, and the baseline must be scored after the search
    K = 3
    traj = make_trajectory("quadratic", K, schedule, t_min=t_min)
    sampler = SamplerConfig(kind=kind)
    cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5, bounds="wide")
    scorers = []  # (step source time, site, values scored through it)
    real_site = StepLoss.site

    def counting_site(self, idx, taus):
        scores, scored = real_site(self, idx, taus), []
        scorers.append((self.t_from, idx, scored))

        def counted(values):
            scored.extend(np.asarray(values).tolist())
            return scores(values)

        return counted

    monkeypatch.setattr(StepLoss, "site", counting_site)
    tuned, records = tune(cfg, traj, sampler, gmm8_model)
    monkeypatch.undo()

    pts = traj.points
    untuned = baseline_tuned(traj, schedule, kind)
    per_step = len(untuned.taus) // K
    rescored = 0
    for i in range(1, K + 1):
        base = tuple(untuned.taus_for_step(i))
        prefix = [tuple(tuned.taus_for_step(j)) for j in range(K, i, -1)]
        loss = StepLoss(i, traj, gmm8_model, sampler, cfg.batch, cfg.seed, prefix=prefix)
        baseline = loss(base).value
        wide = (schedule.t_eps, pts[i + 1] if i < K else pts[K])
        sites = [(idx, s) for t, idx, s in scorers if t == pts[i]]
        search, *extra = [s for idx, s in sites if idx == 0]
        # a second site-0 scorer is the re-score of the baseline, taken
        # exactly when the search did not score the untuned time
        assert extra == ([] if base[0] in search else [[base[0]]])
        rescored += len(extra)
        for idx in range(per_step):
            slot = per_step * (i - 1) + idx
            r = records[slot]
            assert r.loss_baseline == baseline  # bitwise
            assert r.loss_tuned <= r.loss_baseline
            assert tuned.bounds[slot] == wide
            assert r.n_evals == sum(len(s) for j, s in sites if j == idx)
    assert rescored >= 1


def test_tune_rerun_identity(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5, seed=1)
    t1, _ = tune(cfg, traj, SamplerConfig(), gmm8_model)
    t2, _ = tune(cfg, traj, SamplerConfig(), gmm8_model)
    assert np.array_equal(t1.taus, t2.taus)


def test_tune_depends_on_seed(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    a, _ = tune(TunerConfig(batch=128, coarse_grid=9, refine_tol=0.5, seed=0), traj, SamplerConfig(), gmm8_model)
    b, _ = tune(TunerConfig(batch=128, coarse_grid=9, refine_tol=0.5, seed=123), traj, SamplerConfig(), gmm8_model)
    assert not np.array_equal(a.taus, b.taus)


def test_sequential_and_parallel_differ_before_final_step(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 6, schedule)
    seq, _ = tune(
        TunerConfig(strategy="sequential", batch=512, coarse_grid=17, refine_tol=0.1),
        traj, SamplerConfig(), gmm8_model,
    )
    par, _ = tune(
        TunerConfig(strategy="parallel", batch=512, coarse_grid=17, refine_tol=0.1),
        traj, SamplerConfig(), gmm8_model,
    )
    # identical state construction at the first step walked
    assert seq.taus[-1] == par.taus[-1]
    assert not np.array_equal(seq.taus[:-1], par.taus[:-1])


def test_tune_single_step_trajectory(gmm8_model, schedule):
    traj = make_trajectory("uniform", 1, schedule)
    cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5)
    tuned, records = tune(cfg, traj, SamplerConfig(), gmm8_model)
    assert tuned.taus.shape == (1,)
    assert records[0].loss_tuned <= records[0].loss_baseline


def test_tune_two_evaluation_solver(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 3, schedule, t_min=schedule.t_eps)
    cfg = TunerConfig(batch=128, coarse_grid=7, refine_tol=1.0)
    sampler = SamplerConfig(kind="dpm-solver-2")
    tuned, records = tune(cfg, traj, sampler, gmm8_model)
    assert tuned.taus.shape == (6,)
    assert len(records) == 6
    for i in (1, 2, 3):
        rows = [r for r in records if r.step == i]
        assert len(rows) == 2
        assert rows[0].t_site == traj.points[i]
        assert rows[1].t_site == pytest.approx(
            midpoint_time(schedule, traj.points[i], traj.points[i - 1])
        )
        assert rows[0].loss_tuned <= rows[0].loss_baseline


def test_tune_stochastic_sampler_runs(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 3, schedule)
    cfg = TunerConfig(batch=128, coarse_grid=7, refine_tol=1.0)
    tuned, records = tune(cfg, traj, SamplerConfig(eta=0.5, seed=3), gmm8_model)
    assert tuned.taus.shape == (3,)
    for r in records:
        assert r.loss_tuned <= r.loss_baseline


def test_tuner_config_validation():
    with pytest.raises(DomainError):
        TunerConfig(strategy="greedy")
    with pytest.raises(DomainError):
        TunerConfig(bounds="none")
    with pytest.raises(DomainError):
        TunerConfig(batch=0)
    with pytest.raises(DomainError):
        TunerConfig(coarse_grid=2)
    with pytest.raises(DomainError):
        TunerConfig(refine_tol=0.0)
    with pytest.raises(DomainError):
        TunerConfig(seed=-1)


def test_consistency_and_denoising_argmin_agree_large_batch(gmm8_model, schedule):
    # on exact forward states the two objectives differ by a term that does
    # not depend on tau in population; with a large common-random-number
    # batch their empirical argmins land within one grid cell
    traj = make_trajectory("quadratic", 10, schedule)
    for i in (3, 4, 5):
        curves = diagnostic_loss_curves(
            i, traj, gmm8_model, batch=65536, seed=0, n_grid=101
        )
        ja = int(np.argmin(curves["consistency"]))
        jb = int(np.argmin(curves["denoising"]))
        assert abs(ja - jb) <= 1


def test_diagnostic_curves_score_each_grid_point_once(gmm8_model, schedule, monkeypatch):
    # both curves come from one step and one prediction per grid point, and
    # equal each candidate's own evaluation against either target bitwise;
    # the oracle work is counted in evaluated points times conditioning
    # times, at the one evaluation kernel every oracle call goes through
    traj = make_trajectory("quadratic", 10, schedule)
    work = []
    real = GaussianMixtureOracle._evaluate

    def counting(model, X, table, *args, **kwargs):
        work.append(X.shape[1] * np.size(table.t))
        return real(model, X, table, *args, **kwargs)

    monkeypatch.setattr(GaussianMixtureOracle, "_evaluate", counting)
    curves = diagnostic_loss_curves(4, traj, gmm8_model, batch=300, seed=2, n_grid=11)
    assert sum(work) == 300 * (1 + 2 * 11)
    loss = StepLoss(4, traj, gmm8_model, batch=300, seed=2)
    for j, g in enumerate(curves["tau_grid"]):
        assert curves["consistency"][j] == loss((g,)).value
        assert curves["denoising"][j] == _scalar_loss(loss, (g,), loss._true_noise())[0]


def test_diagnostic_curves_report_stderrs(gmm8_model, schedule):
    # the standard errors come from the same pass as the values
    traj = make_trajectory("quadratic", 10, schedule)
    curves = diagnostic_loss_curves(4, traj, gmm8_model, batch=300, seed=2, n_grid=11)
    loss = StepLoss(4, traj, gmm8_model, batch=300, seed=2)
    for j in (0, 5, 10):
        g = (curves["tau_grid"][j],)
        assert curves["consistency_stderr"][j] == _scalar_loss(loss, g)[1]
        assert curves["denoising_stderr"][j] == _scalar_loss(loss, g, loss._true_noise())[1]


@pytest.mark.parametrize("kind, site", [("ddim-family", 0), ("dpm-solver-2", 0), ("dpm-solver-2", 1)])
def test_site_probes_build_scalar_tables_on_one_point_array(
    gmm8_model, schedule, monkeypatch, kind, site
):
    # a golden-section probe is one candidate: it builds the scalar-time
    # table of its time and nothing else of the time side, and the frozen
    # state becomes the oracle's point array once per site, not per probe
    traj = make_trajectory("quadratic", 5, schedule, t_min=schedule.t_eps)
    held = list(baseline_tuned(traj, schedule, kind).taus_for_step(3))
    loss = StepLoss(3, traj, gmm8_model, SamplerConfig(kind=kind), batch=300, seed=6)
    tables, arrays = [], []
    real_times, real_points = GaussianMixtureOracle.times, GaussianMixtureOracle._points

    def times(model, t):
        tables.append(t)
        return real_times(model, t)

    def points(model, x):
        arrays.append(len(x))
        return real_points(model, x)

    monkeypatch.setattr(GaussianMixtureOracle, "times", times)
    monkeypatch.setattr(GaussianMixtureOracle, "_points", points)
    scores = loss.site(site, held)
    del tables[:]  # the held site's table, built with the scorer
    probes = np.linspace(traj.points[2], traj.points[3], 7)[1:6]
    estimates = [scores(np.array([p]))[0] for p in probes]
    monkeypatch.undo()
    assert len(tables) == 5 and all(np.ndim(t) == 0 for t in tables), tables
    assert len(arrays) <= (2 if (kind, site) == ("dpm-solver-2", 1) else 1)
    for p, est in zip(probes, estimates):
        probe = list(held)
        probe[site] = p
        assert est == loss(tuple(probe))
