"""Path analysis and distribution metrics against independent references."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_flow_per_step,
    dense_multistep_product,
    error_bound_rows,
    gaussian_flow,
    multistep_moments,
    multistep_nodes,
    sliced_wasserstein_rows,
)
from steptuner import (
    ContractError,
    DomainError,
    GaussianMixtureOracle,
    NoiseSchedule,
    SamplerConfig,
    TunedTrajectory,
    TunerConfig,
    baseline_tuned,
    make_trajectory,
    sample_path,
    samplers,
    tune,
)
from steptuner.analysis import (
    DENSE_K,
    _dense_points,
    _dense_weights,
    _evaluate_many,
    _merged_points,
    dense_flow,
    draw_start_states,
    error_bound_report,
    evaluate_samples,
    frechet_distance,
    gap_profile,
    generate_paths,
    reference_path,
    sliced_wasserstein,
    step_replacement_sweep,
)
from steptuner.oracle import make_oracle
from steptuner.rng import PURPOSE_PROJ, derive_rng


# ---------------------------------------------------------------- start states


def test_draw_start_states_deterministic_and_worker_free(gmm8_model):
    a = draw_start_states(gmm8_model, 1000, 3)
    b = draw_start_states(gmm8_model, 1000, 3)
    assert np.array_equal(a, b)
    c = draw_start_states(gmm8_model, 1000, 4)
    assert not np.array_equal(a, c)


def test_start_states_nearly_standard_normal(gmm8_model, schedule):
    # at t = T the forward marginal is within sigma_T of N(0, I)
    x = draw_start_states(gmm8_model, 20000, 0)
    assert np.linalg.norm(x.mean(axis=0)) < 0.05
    cov = np.cov(x, rowvar=False)
    assert np.abs(cov - np.eye(2)).max() < 0.05


# ------------------------------------------------------------------- rollouts


@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_generate_paths_worker_invariance(gmm8_model, schedule, eta):
    traj = make_trajectory("quadratic", 4, schedule)
    base = baseline_tuned(traj, schedule, "ddim-family")
    x_T = draw_start_states(gmm8_model, 1280, 2)
    sc = SamplerConfig(eta=eta, seed=9)
    pa = generate_paths(x_T, base, sc, gmm8_model)
    pb = generate_paths(x_T, base, sc, gmm8_model)
    assert np.array_equal(pa.states, pb.states)
    # a row's noise is keyed by its index, not by the rows drawn with it
    head = generate_paths(x_T[:700], base, sc, gmm8_model)
    assert np.array_equal(head.states, pa.states[:, :700])


def test_reference_path_matches_coefficient_product(standard_model, schedule):
    # the unit-variance model makes every dense step linear in the state,
    # so the rollout equals the scalar replay of the integrator's recurrence
    x = np.array([[1.7, -0.9]])
    ref = reference_path(x, standard_model, dense_K=1000)
    ratio = ref.states[-1] / x
    expected = dense_multistep_product(schedule, 1000, 0.0)
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_reference_path_matches_the_exact_flow_of_one_gaussian(schedule):
    # one Gaussian N(mu, s^2 I) has an affine exact flow (``gaussian_flow``).
    # At the default step count the fourth-order steps keep the reference
    # within 2.4e-7 of it at t >= 10 and 4.2e-7 at t = 0, where the steps in
    # rho keep the order. Each bound is twice that measured error. From m =
    # 200 to 800 steps the error falls 235x at t = 40 and 200x at t = 0
    # (fourth order: 4^4 = 256); the ratio bounds are a factor 2 from that,
    # and exclude third order (64) and fifth order (1024).
    mu, s = np.array([1.0, 0.0]), 0.05
    model = GaussianMixtureOracle(
        schedule=schedule, means=mu[None], scales=np.array([s]), weights=np.array([1.0])
    )
    traj = make_trajectory("quadratic", 10, schedule)
    x_T = draw_start_states(model, 256, 0)
    exact = [gaussian_flow(schedule, mu, s, x_T, schedule.T, t) for t in traj.points]

    def errors(m):  # mean L2 error at each checkpoint, t = 0 first
        ref = reference_path(x_T, model, dense_K=m, checkpoints=traj.points)
        return np.array([np.linalg.norm(ref.state_at(i) - e, axis=1).mean() for i, e in enumerate(exact)])

    err = errors(DENSE_K)
    assert DENSE_K == 200 and traj.points[1] == pytest.approx(10.0)
    assert err[1:].max() < 4.8e-7, err
    assert err[0] < 8.4e-7, err
    fine = errors(4 * DENSE_K)
    assert traj.points[2] == pytest.approx(40.0)
    assert 128 < err[2] / fine[2] < 512, (err[2], fine[2])
    assert 128 < err[0] / fine[0] < 512, (err[0], fine[0])


def test_reference_path_repeatable(gmm8_model):
    x = draw_start_states(gmm8_model, 16, 0)
    a = reference_path(x, gmm8_model, dense_K=200)
    b = reference_path(x, gmm8_model, dense_K=200)
    assert np.array_equal(a.states, b.states)
    for m in (0, 2.5, True):
        with pytest.raises(DomainError, match="^dense_K: must be an integer >= 1"):
            reference_path(x, gmm8_model, dense_K=m)
    assert np.array_equal(reference_path(x, gmm8_model, dense_K=np.int64(200)).states, a.states)


def test_dense_flow_rejects_an_interval_that_does_not_run_down(gmm8_model, schedule):
    x = draw_start_states(gmm8_model, 4, 0)
    bad = ([5.0, 5.0], [5.0, 50.0], [9.0, 5.0, 6.0], [9.0, np.nan], [5.0], [], [[9.0, 5.0]])
    for points in bad:
        with pytest.raises(DomainError, match="strictly decreasing 1-D array of at least two"):
            dense_flow(x, gmm8_model, points)
    T = schedule.T
    with pytest.raises(DomainError, match=rf"t_min < T, got {T} >= {T}"):
        reference_path(x, gmm8_model, dense_K=10, t_min=T)


@pytest.mark.parametrize("preset", ["gmm8", "standard"])
@pytest.mark.parametrize("t_from, t_to, m", [(1e3, 0.0, 40), (1e3, 1.0, 40), (3.0, 0.0, 12)])
def test_dense_flow_equals_per_step_epsilon_loop(schedule, preset, t_from, t_to, m):
    # the point-major rollout on a ring of eps buffers is the loop of one
    # epsilon call per step, bit for bit; t_to = 0 crosses t_eps, and the
    # short interval ends with several steps in rho
    model = make_oracle(preset, schedule)
    points = t_to + (t_from - t_to) * np.arange(m, -1, -1) / m
    for n in (1, 2, 257):
        x = draw_start_states(model, n, n)
        for record in (None, [0, 3, 7, m], []):
            got = dense_flow(x, model, points, record)
            want = dense_flow_per_step(x, model, points, record)
            assert got.shape == want.shape and np.array_equal(got, want), (n, record)


@pytest.mark.parametrize("kind, K", [("quadratic", 15), ("log-snr", 10)])
def test_dense_flow_on_a_merged_grid_equals_per_step_epsilon_loop(gmm8_model, schedule, kind, K):
    # checkpoints off the default grid make unequal steps, which the
    # weights take as they come (15 does not divide 200, 20 would)
    traj = make_trajectory(kind, K, schedule)
    points, record = _merged_points(schedule.T, 0.0, DENSE_K, traj.points)
    assert len(points) > DENSE_K + 1
    x = draw_start_states(gmm8_model, 33, 5)
    got = dense_flow(x, gmm8_model, points, record)
    assert np.array_equal(got, dense_flow_per_step(x, gmm8_model, points, record))


@pytest.mark.parametrize("merged", [False, True])
def test_dense_weights_integrate_polynomials_exactly(gmm8_model, schedule, merged):
    # step j's weights w = W[j - 1] integrate 1, u, .., u^(q-1) exactly in
    # its variable: sum_i w_i u_i^k = c_j I_k, the closed-form integrals.
    # Tolerance: the weights are the solution of these q equations, whose
    # inputs carry a few ulps of relative rounding; a solution amplifies that
    # by at most cond(V), V the Vandermonde matrix of the nodes in units of
    # the step h, and the moment sums the terms w_i u_i^k. So each may miss
    # by 8 eps cond(V) sum_i |w_i u_i^k|; the worst miss measured is 0.6 of
    # eps cond(V) times that sum. The merged grid has a step 0.003 of its
    # neighbours', where cond(V) reaches 1e9.
    points = _dense_points(schedule.T, 0.0, DENSE_K)
    if merged:
        traj = make_trajectory("log-snr", 10, schedule)
        points, _ = _merged_points(schedule.T, 0.0, DENSE_K, traj.points)
    ratio, W = _dense_weights(gmm8_model, points)
    alpha = schedule.alpha_sigma(points)[0]
    assert np.array_equal(ratio, alpha[1:] / alpha[:-1])
    eps = np.finfo(float).eps
    for j in range(1, len(points)):
        u, h, c, in_lam = multistep_nodes(schedule, points, j)
        q = len(u)
        assert np.all(W[j - 1, q:] == 0.0), j
        w = W[j - 1, :q]
        cond = np.linalg.cond(np.vander(u / h, q, increasing=True).T)
        for k, I_k in enumerate(multistep_moments(h, q, in_lam)):
            terms = w * u**k
            assert abs(terms.sum() - c * I_k) <= 8 * eps * cond * np.abs(terms).sum(), (j, k)


@pytest.mark.parametrize("name", ["gmm8", "unequal3"])
def test_dense_flow_of_one_row_equals_its_row_of_the_batch(schedule, name):
    # a one-row state is a one-column point array, which numpy's kernels
    # would round unlike a batch; each row's states must not depend on it
    model = make_oracle("gmm8", schedule) if name == "gmm8" else GaussianMixtureOracle(
        schedule=schedule,
        means=np.array([[2.0, -1.0, 0.5], [-3.0, 0.0, 1.0], [0.5, 4.0, -2.0]]),
        scales=np.array([0.02, 0.4, 1.5]),
        weights=np.array([0.6, 0.3, 0.1]),
    )
    x = draw_start_states(model, 37, 0)
    points = _dense_points(schedule.T, 0.0, 200)
    batch = dense_flow(x, model, points)
    for j in range(len(x)):
        assert np.array_equal(dense_flow(x[j : j + 1], model, points), batch[:, j : j + 1]), j


def test_dense_flow_rejects_start_states_as_epsilon_does(gmm8_model):
    for x in (np.zeros((3, 3)), np.array([[0.0, np.nan]]), np.array([[1e200, 0.0]])):
        with pytest.raises(DomainError) as want:
            gmm8_model.epsilon(x, 1000.0)
        with pytest.raises(DomainError) as got:
            dense_flow(x, gmm8_model, _dense_points(1000.0, 0.0, 10))
        assert str(got.value) == str(want.value)


def test_dense_flow_rejects_record_indices_outside_its_points(gmm8_model):
    x = draw_start_states(gmm8_model, 4, 0)
    points = _dense_points(1000.0, 0.0, 10)
    for record, bad in (([12, 99], "12"), ([3, -1], "-1"), ([2.5], "2.5")):
        with pytest.raises(DomainError, match=rf"record: index {bad} is not an integer in \[0, 10\]"):
            dense_flow(x, gmm8_model, points, record)
    kept = dense_flow(x, gmm8_model, points, [10, 0])
    assert np.array_equal(kept, dense_flow(x, gmm8_model, points)[[0, 10]])


def test_dense_flow_schedule_calls_do_not_grow_with_steps(gmm8_model, monkeypatch):
    # the time side of every oracle call is built once per rollout, so the
    # schedule is asked for alpha and sigma a fixed number of times
    calls = []
    real = NoiseSchedule.alpha_sigma

    def counting(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(NoiseSchedule, "alpha_sigma", counting)
    x = draw_start_states(gmm8_model, 8, 0)
    counts = []
    for m in (10, 200):
        calls.clear()
        dense_flow(x, gmm8_model, _dense_points(1000.0, 0.0, m), record=[m])
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("kind", ["uniform", "quadratic", "log-snr"])
def test_reference_checkpoints_equal_full_reference(gmm8_model, schedule, kind):
    # the checkpointed reference keeps, of the full rollout over the merged
    # grid, the states at the checkpoints, which are its trajectory points
    traj = make_trajectory(kind, 10, schedule)
    x_T = draw_start_states(gmm8_model, 64, 3)
    t_min = float(traj.points[0])
    ckpt = reference_path(x_T, gmm8_model, dense_K=1000, t_min=t_min, checkpoints=traj.points)
    points, record = _merged_points(schedule.T, t_min, 1000, traj.points)
    full = dense_flow(x_T, gmm8_model, points)
    assert np.array_equal(ckpt.trajectory_points, traj.points)
    # a checkpoint within 1e-9 T of a dense point is snapped onto it
    assert np.allclose(points[record], traj.points[::-1], rtol=0, atol=1e-9 * schedule.T)
    assert np.array_equal(ckpt.states, full[record])


@pytest.mark.parametrize("t_min", [0.0, 1.0])
def test_on_grid_checkpoints_add_no_dense_point(gmm8_model, schedule, t_min):
    # K = 10 quadratic lies on the 1000-step grid at both shipped t_min: the
    # grid has its spacing, and 10 divides 1000
    traj = make_trajectory("quadratic", 10, schedule, t_min=t_min)
    points, record = _merged_points(schedule.T, t_min, 1000, traj.points)
    assert np.array_equal(points, _dense_points(schedule.T, t_min, 1000))
    x_T = draw_start_states(gmm8_model, 64, 3)
    full = reference_path(x_T, gmm8_model, dense_K=1000, t_min=t_min)
    ckpt = reference_path(x_T, gmm8_model, dense_K=1000, t_min=t_min, checkpoints=traj.points)
    assert np.array_equal(ckpt.states, full.states[record])


def test_off_grid_checkpoint_is_the_exact_flow_there(gmm8_model, schedule):
    # K = 10 log-SNR has t_1 = 4.992, between the default grid's 4.9 and
    # 5.625; the reference's state there is a dense rollout that ends at t_1
    traj = make_trajectory("log-snr", 10, schedule)
    t_1 = float(traj.points[1])
    grid = _dense_points(schedule.T, 0.0, DENSE_K)
    assert 4.9 < t_1 < 5.0 and np.abs(grid - t_1).min() > 0.05, t_1
    x_T = draw_start_states(gmm8_model, 1024, 0)
    ref = reference_path(x_T, gmm8_model, checkpoints=traj.points)
    [exact] = dense_flow(x_T, gmm8_model, _dense_points(schedule.T, t_1, 1000), [1000])
    err = float(np.linalg.norm(ref.state_at(1) - exact, axis=1).mean())
    assert err < 1e-4, err


def test_checkpoints_snap_to_the_nearest_dense_point(schedule):
    # at 40,000 steps the quadratic grid's last spacing, 1000 / 40000^2 =
    # 6.25e-7, is below the snapping tolerance 1e-9 T: t = 0 lies within it
    # of 6.25e-7 as well as of 0, and must be recorded at 0
    traj = make_trajectory("quadratic", 10, schedule)
    points, record = _merged_points(schedule.T, 0.0, 40_000, traj.points)
    assert points[-2] < 1e-9 * schedule.T and len(points) == 40_001
    assert np.array_equal(points[record], traj.points[::-1])
    # an off-grid time nearer 0 than 6.25e-7 snaps to 0, one nearer 6.25e-7 to it
    for t, want in ((2e-7, 0.0), (5e-7, points[-2])):
        points, record = _merged_points(schedule.T, 0.0, 40_000, [t, 500.0])
        assert points[record[-1]] == want and len(points) == 40_002


def test_reference_rejects_bad_checkpoints(gmm8_model):
    x_T = draw_start_states(gmm8_model, 8, 0)
    for t_min, checkpoints, match in (
        (0.0, [0.0, 1500.0], r"within \[0.0, 1000.0\]"),
        (10.0, [0.0, 1000.0], r"within \[10.0, 1000.0\]"),
        (0.0, [-1.0], "within"),
        (0.0, [np.nan], "within"),
        (0.0, [0.0, 500.0, 500.0, 1000.0], "must increase strictly"),
        (0.0, [0.0, 600.0, 500.0, 1000.0], "must increase strictly"),
        (0.0, [], "non-empty 1-D array"),
        (0.0, [[0.0, 1000.0]], "non-empty 1-D array"),
    ):
        with pytest.raises(DomainError, match=match):
            reference_path(x_T, gmm8_model, dense_K=100, t_min=t_min, checkpoints=checkpoints)
    # within 1e-9 T of an end, a checkpoint is that end
    ends = [10.0 - 1e-7, 500.0, 1000.0 + 1e-7]
    ref = reference_path(x_T, gmm8_model, dense_K=100, t_min=10.0, checkpoints=ends)
    assert np.array_equal(ref.trajectory_points, ends)
    assert np.array_equal(ref.states[0], x_T)


def test_reference_checkpoints_bound_memory(gmm8_model, schedule):
    dense_K, n = 200, 20_000
    traj = make_trajectory("quadratic", 10, schedule)
    x_T = draw_start_states(gmm8_model, n, 0)
    tracemalloc.start()
    try:
        ref = reference_path(x_T, gmm8_model, dense_K=dense_K, checkpoints=traj.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ref.states.shape == (11, n, 2)
    assert peak < 0.25 * (dense_K + 1) * n * 2 * 8


# ---------------------------------------------------------------- gap profile


def test_gap_profile_of_path_against_itself(gmm8_model, schedule):
    traj = make_trajectory("uniform", 5, schedule)
    base = baseline_tuned(traj, schedule, "ddim-family")
    x_T = draw_start_states(gmm8_model, 64, 1)
    p = generate_paths(x_T, base, SamplerConfig(), gmm8_model)
    gp = gap_profile(p, p)
    assert len(gp.rows) == 6
    for i, t, mean_gap, stderr, n in gp.rows:
        assert mean_gap == 0.0
        assert stderr == 0.0
        assert n == 64
    assert [r[1] for r in gp.rows] == list(traj.points)


def test_gap_profile_pairs_states_by_index(gmm8_model, schedule):
    # K = 10 quadratic checkpoint i is point 100 i of the 1000-step grid
    traj = make_trajectory("quadratic", 10, schedule)
    base = baseline_tuned(traj, schedule, "ddim-family")
    x_T = draw_start_states(gmm8_model, 128, 0)
    p = generate_paths(x_T, base, SamplerConfig(), gmm8_model)
    ref = reference_path(x_T, gmm8_model, dense_K=1000, checkpoints=traj.points)
    full = reference_path(x_T, gmm8_model, dense_K=1000)
    gp = gap_profile(p, ref)
    for i in (0, 3, 7, 10):
        assert np.array_equal(ref.state_at(i), full.state_at(100 * i))
        manual = float(np.linalg.norm(p.state_at(i) - ref.state_at(i), axis=1).mean())
        assert gp.rows[i][2] == manual
    # a reference on other points is not paired with the checkpoints
    with pytest.raises(ContractError, match="share their checkpoints"):
        gap_profile(p, full)


def test_gap_profile_rejects_mismatched_starts(gmm8_model, schedule):
    traj = make_trajectory("uniform", 4, schedule)
    base = baseline_tuned(traj, schedule, "ddim-family")
    x_a = draw_start_states(gmm8_model, 32, 0)
    x_b = draw_start_states(gmm8_model, 32, 1)
    p = generate_paths(x_a, base, SamplerConfig(), gmm8_model)
    ref = reference_path(x_b, gmm8_model, dense_K=100, checkpoints=traj.points)
    with pytest.raises(ContractError, match="share x_T"):
        gap_profile(p, ref)
    ref_small = reference_path(x_a[:16], gmm8_model, dense_K=100, checkpoints=traj.points)
    with pytest.raises(ContractError):
        gap_profile(p, ref_small)


def test_final_gap_shrinks_with_more_steps(gmm8_model, schedule):
    x_T = draw_start_states(gmm8_model, 512, 0)
    finals = {}
    for K in (10, 20):
        traj = make_trajectory("quadratic", K, schedule)
        base = baseline_tuned(traj, schedule, "ddim-family")
        p = generate_paths(x_T, base, SamplerConfig(), gmm8_model)
        ref = reference_path(x_T, gmm8_model, dense_K=1000, checkpoints=traj.points)
        finals[K] = gap_profile(p, ref).rows[0][2]
    assert finals[20] < finals[10]


def test_gap_report_csv_shape(gmm8_model, schedule):
    traj = make_trajectory("uniform", 3, schedule)
    base = baseline_tuned(traj, schedule, "ddim-family")
    x_T = draw_start_states(gmm8_model, 8, 0)
    p = generate_paths(x_T, base, SamplerConfig(), gmm8_model)
    text = gap_profile(p, p).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "step_index,t,mean_gap,stderr,n_paths"
    assert len(lines) == 5


# -------------------------------------------------------------------- metrics


def test_frechet_distance_of_set_with_itself(gmm8_model):
    x = gmm8_model.sample_data(4096, 0)
    assert frechet_distance(x, x) <= 1e-10


def test_frechet_distance_pure_shift(gmm8_model):
    x = gmm8_model.sample_data(5000, 9)
    d = np.array([0.7, -0.3])
    assert frechet_distance(x, x + d) == pytest.approx(float(d @ d), rel=1e-9)


def test_frechet_distance_matches_scipy_sqrtm(gmm8_model):
    x = gmm8_model.sample_data(5000, 9)
    y = gmm8_model.sample_data(5000, 10) + np.array([0.3, -0.2])
    ma, mb = x.mean(axis=0), y.mean(axis=0)
    Ca = np.cov(x, rowvar=False)
    Cb = np.cov(y, rowvar=False)
    cross = scipy.linalg.sqrtm(Ca @ Cb)
    expected = float(
        np.sum((ma - mb) ** 2) + np.trace(Ca) + np.trace(Cb) - 2.0 * np.trace(cross.real)
    )
    assert frechet_distance(x, y) == pytest.approx(expected, rel=1e-9)


def test_frechet_distance_independent_draws_near_zero(gmm8_model):
    a = gmm8_model.sample_data(20000, 1)
    b = gmm8_model.sample_data(20000, 2)
    assert frechet_distance(a, b) < 0.01


def test_frechet_distance_input_validation():
    with pytest.raises(DomainError):
        frechet_distance(np.zeros((2, 2)), np.zeros((10, 2)))
    bad = np.zeros((10, 2))
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        frechet_distance(bad, np.zeros((10, 2)))


def test_sliced_wasserstein_shift_in_one_dimension():
    a = np.linspace(-2.0, 2.0, 301).reshape(-1, 1)
    b = a + 0.77
    assert sliced_wasserstein(a, b, 64, 0) == pytest.approx(0.77, abs=1e-12)


def test_sliced_wasserstein_matches_manual_projection(gmm8_model):
    a = gmm8_model.sample_data(600, 7)
    b = gmm8_model.sample_data(512, 8)
    rng = derive_rng(11, PURPOSE_PROJ, 0, 0)
    dirs = rng.standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    m = 600
    q = (np.arange(m) + 0.5) / m
    qa = np.quantile(a @ dirs.T, q, axis=0, method="inverted_cdf")
    qb = np.quantile(b @ dirs.T, q, axis=0, method="inverted_cdf")
    manual = float(np.sqrt(np.mean((qa - qb) ** 2, axis=0)).mean())
    assert sliced_wasserstein(a, b, 64, 11) == pytest.approx(manual, abs=1e-12)


def test_sliced_wasserstein_projection_count_stability(gmm8_model):
    g = gmm8_model.sample_data(4096, 3)
    d = gmm8_model.sample_data(4096, 4)
    s128 = sliced_wasserstein(g, d, 128, 0)
    s512 = sliced_wasserstein(g, d, 512, 0)
    assert abs(s128 - s512) / s512 < 0.05
    with pytest.raises(DomainError):
        sliced_wasserstein(np.zeros((0, 2)), g)


def test_evaluate_samples_bundle(gmm8_model):
    g = gmm8_model.sample_data(2048, 0)
    d = gmm8_model.sample_data(2048, 1)
    rep = evaluate_samples(g, d, seed=5)
    assert rep.frechet == frechet_distance(g, d)
    assert rep.sliced_wasserstein == sliced_wasserstein(g, d, 128, 5)
    assert rep.n_a == rep.n_b == 2048
    payload = rep.to_dict()
    assert set(payload) >= {"frechet", "sliced_wasserstein", "mean_delta", "cov_delta"}


@settings(max_examples=80, deadline=None)
@given(
    na=st.integers(min_value=1, max_value=400),
    nb=st.integers(min_value=1, max_value=400),
    equal=st.booleans(),
    dim=st.sampled_from([1, 2, 3]),
    n_projections=st.sampled_from([1, 17, 128]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(na=1, nb=1, equal=True, dim=2, n_projections=128, seed=0)
@example(na=1, nb=7, equal=False, dim=3, n_projections=17, seed=1)
@example(na=7, nb=1, equal=False, dim=1, n_projections=1, seed=2)
def test_sliced_wasserstein_equals_row_major_reference(na, nb, equal, dim, n_projections, seed):
    # sorting direction-major rows and reading equal-size sets through the
    # identity levels must not move a bit
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((na, dim)) * 3.0
    b = rng.standard_normal((na if equal else nb, dim)) + 0.5
    expected = sliced_wasserstein_rows(a, b, n_projections, seed)
    assert sliced_wasserstein(a, b, n_projections, seed) == expected


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_many_equals_one_set_calls(dim):
    rng = np.random.default_rng(dim)
    data = rng.standard_normal((300, dim))
    sets = [rng.standard_normal((n, dim)) * 1.5 for n in (300, 120, 300, 450)]
    reports = _evaluate_many(sets, data, 9, 33)
    assert reports == [evaluate_samples(g, data, 9, 33) for g in sets]
    for g, report in zip(sets, reports):
        assert report.frechet == frechet_distance(g, data)
        assert report.sliced_wasserstein == sliced_wasserstein(g, data, 33, 9)


@pytest.mark.parametrize("n_projections", [0, -3, 2.5, True, "8"])
def test_sliced_wasserstein_rejects_bad_projection_counts(n_projections):
    x = np.random.default_rng(0).standard_normal((10, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="n_projections"):
            sliced_wasserstein(x, x, n_projections)
        with pytest.raises(DomainError, match="n_projections"):
            evaluate_samples(x, x, 0, n_projections)


def _bad_set(kind: str) -> np.ndarray:
    x = np.random.default_rng(1).standard_normal((10, 2))
    if kind == "empty":
        return x[:0]
    if kind == "dim":
        return np.random.default_rng(1).standard_normal((10, 3))
    x[3, 1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return x


@pytest.mark.parametrize("kind", ["empty", "nan", "inf", "-inf", "dim"])
@pytest.mark.parametrize("metric", [sliced_wasserstein, frechet_distance, evaluate_samples])
def test_metrics_reject_bad_sample_sets(metric, kind):
    # checked before any projection or sort: no nan comes back and no
    # numpy error or warning escapes
    good = np.random.default_rng(0).standard_normal((10, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [(_bad_set(kind), good), (good, _bad_set(kind))]:
            with pytest.raises(DomainError):
                metric(a, b)


def test_metrics_read_1d_sets_as_samples_in_one_dimension():
    # n scalars are n points on a line, not one point in n dimensions
    a, b = np.arange(5.0), np.arange(5.0) + 1
    assert sliced_wasserstein(a, b) == pytest.approx(1.0, rel=1e-12)
    assert sliced_wasserstein(a, b) == sliced_wasserstein(a[:, None], b[:, None])
    assert frechet_distance(np.arange(8.0), np.arange(8.0) + 1) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------- sweep


def test_step_replacement_sweep_endpoints(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 3, schedule)
    cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5, seed=0)
    tuned, _ = tune(cfg, traj, SamplerConfig(), gmm8_model)
    reports = step_replacement_sweep(
        traj, tuned, SamplerConfig(), gmm8_model, 1024, seed=5, data_seed=8, eval_seed=9
    )
    assert len(reports) == 4

    x_T = draw_start_states(gmm8_model, 1024, 5)
    data = gmm8_model.sample_data(1024, 8)
    base = baseline_tuned(traj, schedule, "ddim-family")
    e0 = evaluate_samples(generate_paths(x_T, base, SamplerConfig(), gmm8_model).states[-1], data, 9)
    eK = evaluate_samples(generate_paths(x_T, tuned, SamplerConfig(), gmm8_model).states[-1], data, 9)
    assert reports[0] == e0
    assert reports[-1] == eK


@pytest.mark.parametrize(
    "kind,eta,t_min",
    [("ddim-family", 0.0, 0.0), ("ddim-family", 0.7, 0.0), ("dpm-solver-2", 0.0, 1.0)],
)
def test_step_replacement_sweep_equals_hybrids_rolled_from_x_T(
    gmm8_model, schedule, monkeypatch, kind, eta, t_min
):
    K, n = 4, 300
    traj = make_trajectory("quadratic", K, schedule, t_min=t_min)
    sampler = SamplerConfig(kind=kind, eta=eta, seed=3)
    cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5, seed=0)
    tuned, _ = tune(cfg, traj, sampler, gmm8_model)
    base = baseline_tuned(traj, schedule, kind)
    assert not np.array_equal(tuned.taus, base.taus)

    steps = []
    real_step = samplers.step

    def counting_step(*args, **kwargs):
        steps.append(args[1])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(samplers, "step", counting_step)
    reports = step_replacement_sweep(
        traj, tuned, sampler, gmm8_model, n, seed=5, data_seed=6, eval_seed=5
    )
    monkeypatch.undo()
    assert len(steps) == K + K * (K + 1) // 2

    # hybrid m as a tuned trajectory of its own, rolled from x_T
    x_T = draw_start_states(gmm8_model, n, 5)
    data = gmm8_model.sample_data(n, 6)
    per_step = len(tuned.taus) // K
    finals = []
    for m, report in enumerate(reports):
        taus = base.taus.copy()
        for i in range(K, K - m, -1):
            taus[per_step * (i - 1) : per_step * i] = tuned.taus_for_step(i)
        hybrid = TunedTrajectory(base=traj, taus=taus, sampler_kind=kind)
        finals.append(sample_path(x_T, hybrid, sampler, gmm8_model).states[-1])
        assert report == evaluate_samples(finals[-1], data, 5), m
    assert len({f.tobytes() for f in finals}) > 2


def test_step_replacement_sweep_checks_trajectory(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 3, schedule)
    other = make_trajectory("quadratic", 4, schedule)
    tuned = baseline_tuned(other, schedule, "ddim-family")
    with pytest.raises(ContractError):
        step_replacement_sweep(traj, tuned, SamplerConfig(), gmm8_model, 64)


# --------------------------------------------------------------- error bounds


def test_error_bound_holds_for_unit_variance_model(standard_model, schedule):
    traj = make_trajectory("quadratic", 10, schedule)
    rows = error_bound_report(traj, None, SamplerConfig(), standard_model, 1024, seed=0)
    assert len(rows) == 10
    assert [r["step"] for r in rows] == list(range(1, 11))
    for r in rows:
        assert r["lipschitz_C"] is not None
        assert r["bound"] >= 0.0
        assert r["holds"]


def test_error_bound_mixture_has_no_constant(gmm8_model, schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    rows = error_bound_report(traj, None, SamplerConfig(), gmm8_model, 128, seed=0, dense_K=200)
    for r in rows:
        assert r["lipschitz_C"] is None
        assert "bound" not in r
        assert r["lhs"] >= 0.0
        assert r["loss_sum"] >= 0.0


@pytest.mark.parametrize("preset,K,dense_K", [("standard", 10, 1000), ("gmm8", 4, 200)])
def test_error_bound_report_matches_its_formulas(schedule, preset, K, dense_K):
    model = make_oracle(preset, schedule)
    traj = make_trajectory("quadratic", K, schedule)
    tuned = None
    if preset == "gmm8":  # also cover a rollout at tuned times
        cfg = TunerConfig(batch=256, coarse_grid=9, refine_tol=0.5, seed=0)
        tuned, _ = tune(cfg, traj, SamplerConfig(), model)
    rows = error_bound_report(traj, tuned, SamplerConfig(), model, 256, seed=4, dense_K=dense_K)
    x_T = draw_start_states(model, 256, 4)
    coarse = generate_paths(x_T, tuned or baseline_tuned(traj, schedule), SamplerConfig(), model)
    reference = reference_path(x_T, model, dense_K, checkpoints=traj.points)
    assert rows == error_bound_rows(coarse, reference, traj, model)


def test_error_bound_requires_deterministic_sampler(standard_model, schedule):
    traj = make_trajectory("quadratic", 4, schedule)
    with pytest.raises(ContractError):
        error_bound_report(traj, None, SamplerConfig(eta=0.5), standard_model, 64)
