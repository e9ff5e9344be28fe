"""Mixture oracle: score vs finite differences, normalization, sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import finite_difference_gradient, mixture_posterior
from steptuner import (
    DomainError,
    GaussianMixtureOracle,
    NoiseSchedule,
    SamplerConfig,
    baseline_tuned,
    draw_start_states,
    error_bound_report,
    gmm8,
    make_trajectory,
    standard_gaussian,
    step_replacement_sweep,
)
from steptuner.analysis import _dense_points, _merged_points
from steptuner import oracle as oracle_module
from steptuner.oracle import make_oracle
from steptuner.rng import PURPOSE_DATA, derive_rng

# oracle methods checked against the keys of the same name in mixture_posterior
METHODS = ("epsilon", "score", "log_density", "responsibilities")


def test_score_matches_finite_differences(gmm8_model, rng):
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 1000.0))
        x = rng.uniform(-2.0, 2.0, size=2)
        grad_fd = finite_difference_gradient(
            lambda y: gmm8_model.log_density(y, t), x
        )
        grad = gmm8_model.score(x, t)
        rel = np.linalg.norm(grad - grad_fd) / max(1e-12, np.linalg.norm(grad_fd))
        worst = max(worst, rel)
    assert worst < 1e-5


def _unequal_mixture_3d(schedule):
    return GaussianMixtureOracle(
        schedule=schedule,
        means=np.array([[2.0, -1.0, 0.5], [-3.0, 0.0, 1.0], [0.5, 4.0, -2.0]]),
        scales=np.array([0.02, 0.4, 1.5]),
        weights=np.array([0.6, 0.3, 0.1]),
    )


@pytest.mark.parametrize("name", ["gmm8", "standard3", "unequal3"])
def test_expanded_distances_match_direct_formula(schedule, name):
    # the oracle expands ||x - alpha mu_k||^2 instead of forming the
    # (n, k, D) differences; both must agree to 1e-10 normwise relative
    model = {
        "gmm8": lambda: gmm8(schedule),
        "standard3": lambda: standard_gaussian(schedule, dim=3),
        "unequal3": lambda: _unequal_mixture_3d(schedule),
    }[name]()
    rng = np.random.default_rng(11)
    for t in (schedule.t_eps, 0.01, 1.0, 80.0, 300.0, 999.0, schedule.T):
        for radius in (0.01, 0.1, 1.0, 3.0, 10.0):
            x = rng.standard_normal((64, model.dim))
            x *= radius / np.linalg.norm(x, axis=1, keepdims=True)
            direct = mixture_posterior(model, x, t)
            for method in METHODS:
                want = direct[method]
                got = getattr(model, method)(x, t)
                rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert rel < 1e-10, (method, t, radius, rel)


def test_subnormal_weights_match_direct_formula(schedule, monkeypatch):
    # near the gmm8 modes at small t, opposite modes lie hundreds of nats
    # below the nearest one, where exp of the shifted log weight is subnormal;
    # epsilon and score floor those logits first, and still match
    model = gmm8(schedule)
    rng = np.random.default_rng(5)
    x = np.repeat(model.means, 8, axis=0) + 0.01 * rng.standard_normal((64, 2))
    floors = []
    real = GaussianMixtureOracle._exp_shifted

    def recording(g, floor=False):
        floors.append(floor)
        return real(g, floor)

    monkeypatch.setattr(GaussianMixtureOracle, "_exp_shifted", staticmethod(recording))
    lowest = 0.0
    for t in (schedule.t_eps, 1.0, 2.0, 3.0):
        direct = mixture_posterior(model, x, t)
        lowest = min(lowest, direct["shifted_log_weights"].min())
        for method in METHODS:
            floors.clear()
            want = direct[method]
            got = getattr(model, method)(x, t)
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel < 1e-10, (method, t, rel)
            if t <= 2.0:
                assert floors == [method in ("epsilon", "score")], (method, t)
    assert lowest < -708.0


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    D=st.integers(min_value=1, max_value=5),
    radius=st.floats(min_value=0.0, max_value=10.0),
    t=st.one_of(st.sampled_from(["t_eps", 0.0, 1000.0]), st.floats(0.0, 1000.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exp_floor_bound_is_sound(schedule, k, D, radius, t, seed):
    # a point the table calls safe (||x||^2 <= safe_r2) has no shifted logit
    # below the floor, so whether a batch takes the floor never changes a
    # row; points sit anywhere within the radius and near the scaled modes
    t = schedule.t_eps if t == "t_eps" else t
    rng = np.random.default_rng(seed)
    model = _random_mixture(schedule, rng, k, D)
    x = rng.standard_normal((32, D))
    x *= rng.uniform(0.0, radius, (32, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    alpha, _ = schedule.alpha_sigma(t)
    near = alpha * model.means[rng.integers(k, size=32)] + 0.01 * rng.standard_normal((32, D))
    x = np.concatenate([x, near])
    table = model.times(t)
    shifted = mixture_posterior(model, x, t)["shifted_log_weights"]
    safe = np.sum(x * x, axis=1) <= table.safe_r2
    assert np.all(shifted[safe] >= oracle_module._EXP_FLOOR)
    grid = model.times(np.array([t, 0.5 * t, schedule.T]))
    alone = [model.times(tg).safe_r2 for tg in grid.t]
    assert np.array_equal(grid.row_safe_r2, alone) and grid.safe_r2 == min(alone)


def test_nan_time_rejected(gmm8_model):
    for x in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(DomainError, match=r"t must lie in \[0, "):
            gmm8_model.epsilon(x, np.nan)


def test_epsilon_memory_has_no_component_dim_tensor(schedule):
    n, k, D = 20_000, 8, 16
    rng = np.random.default_rng(2)
    model = GaussianMixtureOracle(
        schedule=schedule,
        means=rng.standard_normal((k, D)),
        scales=np.full(k, 0.3),
        weights=np.full(k, 1.0 / k),
    )
    x = rng.standard_normal((n, D))
    tracemalloc.start()
    try:
        model.epsilon(x, 250.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * k * D * 8


_MULTI_MODELS = {
    "gmm8": lambda s: gmm8(s),
    "standard3": lambda s: standard_gaussian(s, dim=3),
    "unequal3": _unequal_mixture_3d,
}


@pytest.mark.parametrize("name", sorted(_MULTI_MODELS))
@pytest.mark.parametrize(
    "n, t", [(1, 250.0), (300, 250.0), (300, [0.0, 250.0, 1000.0]), (1, [0.0, 250.0, 1000.0])]
)
def test_predictions_are_row_major(schedule, name, n, t):
    # epsilon and score return C-contiguous (..., n, D) arrays, which every
    # elementwise consumer reads fastest, one point at many times included;
    # _evaluate writes into the out it is given and returns that array itself
    model = _MULTI_MODELS[name](schedule)
    x = np.random.default_rng(n).standard_normal((n, model.dim))
    for method in (model.epsilon, model.score):
        out = method(x, t)
        assert out.shape == np.shape(t) + (n, model.dim)
        assert out.flags.c_contiguous
    X, _ = model._points(x)
    table = model.times(t)
    buf = np.empty(np.shape(t) + (model.dim, n))
    assert model._evaluate(X, table, out=buf) is buf
    assert np.array_equal(buf.swapaxes(-1, -2), model.epsilon(x, t))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_MULTI_MODELS)),
    n=st.integers(min_value=1, max_value=3000),
    times=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multi_time_epsilon_slices_equal_scalar_calls(schedule, name, n, times, seed):
    # the tuner scores a site's candidates in one call with G times; each
    # slice must be the call at its one time, bit for bit
    model = _MULTI_MODELS[name](schedule)
    x = np.random.default_rng(seed).standard_normal((n, model.dim)) * 2.0
    t = np.array(times)
    stacked = model.epsilon(x, t)
    assert stacked.shape == (len(t), n, model.dim)
    for g, tg in enumerate(times):
        assert np.array_equal(stacked[g], model.epsilon(x, tg))
    # a single point gives (G, D), as it gives (D,) at one time
    assert np.array_equal(model.epsilon(x[0], t), model.epsilon(x[:1], t)[:, 0])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_MULTI_MODELS)),
    n=st.integers(min_value=1, max_value=300),
    times=st.lists(
        st.one_of(st.sampled_from(["t_eps", 0.0, 1000.0]), st.floats(0.0, 1000.0)),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_time_table_rows_equal_plain_times(schedule, name, n, times, seed):
    # a table built once and passed to many calls is the same evaluation as
    # the plain time, bit for bit: whole, one time alone, or row by row as
    # the kernel reads it in place
    model = _MULTI_MODELS[name](schedule)
    ts = np.array([schedule.t_eps if t == "t_eps" else t for t in times])
    x = np.random.default_rng(seed).standard_normal((n, model.dim)) * 2.0
    table = model.times(ts)
    X, _ = model._points(x)
    for j, t in enumerate(ts):
        assert np.array_equal(model._evaluate(X, table, j).T, model.epsilon(x, t))
    assert np.array_equal(model._evaluate(X, table, 0, times_sigma=False).T, model.score(x, ts[0]))
    assert np.array_equal(model.epsilon(x, table), model.epsilon(x, ts))
    first = model.times(ts[0])
    for method in METHODS:
        assert np.array_equal(getattr(model, method)(x, first), getattr(model, method)(x, ts[0]))
    # one point at G times gives G densities, as it gives one at one time
    assert np.array_equal(model.log_density(x[0], table), model.log_density(x[:1], ts)[:, 0])
    assert model.log_density(x[0], first) == model.log_density(x[0], ts[0])


@pytest.mark.parametrize("name", sorted(_MULTI_MODELS))
@pytest.mark.parametrize("t_min", [0.0, 1.0])
def test_time_table_rows_on_the_dense_grid(schedule, name, t_min):
    # the dense reference's points, the 1,001 of the grid and those merged
    # with the off-grid checkpoints of K = 10 log-SNR: each row of the one
    # table, as the kernel reads it, equals the table its time alone builds
    model = _MULTI_MODELS[name](schedule)
    checkpoints = make_trajectory("log-snr", 10, schedule, t_min=t_min).points
    merged, _ = _merged_points(schedule.T, t_min, 1000, checkpoints)
    for pts in (_dense_points(schedule.T, t_min, 1000), merged):
        table = model.times(pts)
        assert table.C.shape == (len(pts), len(model.weights), model.dim + 3)
        for j, t in enumerate(pts):
            alone = model.times(t)
            assert table.t[j] == alone.t == t
            assert np.array_equal(table.C[j], alone.C), j
            assert table.sigma[j, 0] == alone.sigma and table.row_safe_r2[j] == alone.safe_r2, j
    assert len(merged) > 1001


def test_time_table_misuse_rejected(schedule, gmm8_model):
    x = np.zeros((3, 2))
    with pytest.raises(DomainError, match="another oracle"):
        gmm8_model.epsilon(x, gmm8(schedule).times(10.0))
    with pytest.raises(DomainError):
        gmm8_model.times(np.full((2, 2), 10.0))
    with pytest.raises(ValueError):
        gmm8_model.times(10.0).C[0, 0] = 1.0


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_MULTI_MODELS)),
    n=st.integers(min_value=5, max_value=3000),
    t=st.floats(min_value=0.0, max_value=1000.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rows_do_not_depend_on_the_batch(schedule, name, n, t, seed):
    # a row's prediction is the same alone, in a prefix of the batch and in
    # the whole batch, bit for bit; a one-row batch included, which numpy's
    # matrix-vector kernel would round differently
    model = _MULTI_MODELS[name](schedule)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.dim)) * 2.0
    full = model.epsilon(x, t)
    for m in (1, 2, 3, 4):
        assert np.array_equal(model.epsilon(x[:m], t), full[:m]), m
    j = int(rng.integers(n))
    assert np.array_equal(model.epsilon(x[j], t), full[j])
    assert np.array_equal(model.epsilon(x[j : j + 1], t), full[j : j + 1])


@pytest.mark.parametrize("n", [1, 2, 37])
def test_point_arrays_hold_exactly_n_columns(schedule, n):
    # a point array has one column per point, a single point included; its
    # point rows are a view that a caller moves in place
    model = _unequal_mixture_3d(schedule)
    x = np.random.default_rng(n).standard_normal((n, 3))
    X, rows = model._points(x)
    assert np.array_equal(rows, x.T)
    Y, y = model._point_array(n)
    for A, a in ((X, rows), (Y, y)):
        assert A.shape == (5, n) and np.array_equal(A[0], np.ones(n))
        a[...] = 7.0
        assert np.all(A[1:4] == 7.0)


def test_one_component_log_density_does_not_depend_on_the_batch(schedule):
    # a one-component mixture's logits are a one-row matrix product, which
    # numpy rounds unlike a multi-row one; each row must read as it reads
    # alone, as epsilon's rows do
    model = standard_gaussian(schedule, 2)
    x = np.random.default_rng(300).standard_normal((300, 2)) * 2.0
    t = 804.779
    for method in (model.log_density, model.responsibilities):
        full = method(x, t)
        for j in range(len(x)):
            assert np.array_equal(method(x[j : j + 1], t), full[j : j + 1]), (method, j)


def _random_mixture(schedule, rng, k, D):
    """k components in D dimensions with unequal log-uniform scales and weights."""
    weights = rng.uniform(0.05, 1.0, k)
    return GaussianMixtureOracle(
        schedule=schedule,
        means=rng.standard_normal((k, D)) * rng.uniform(0.0, 3.0),
        scales=np.exp(rng.uniform(np.log(0.02), np.log(2.0), k)),
        weights=weights / weights.sum(),
    )


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    D=st.integers(min_value=1, max_value=5),
    radius=st.floats(min_value=0.0, max_value=10.0),
    t=st.one_of(st.sampled_from(["t_eps", 0.0, 1000.0]), st.floats(0.0, 1000.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_logit_and_moment_matmuls_match_direct_formula(schedule, k, D, radius, t, seed):
    # the -||x||^2 / 2 row of X only cancels in the normalisation when every
    # component has the same variance, so unequal scales exercise it
    t = schedule.t_eps if t == "t_eps" else t
    rng = np.random.default_rng(seed)
    model = _random_mixture(schedule, rng, k, D)
    x = rng.standard_normal((32, D))
    x *= rng.uniform(0.0, radius, (32, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    direct = mixture_posterior(model, x, t)
    for method in METHODS:
        want = direct[method]
        got = getattr(model, method)(x, t)
        scale = np.max(np.abs(want))
        err = np.max(np.abs(got - want))
        assert err <= 1e-10 * scale, (method, err / scale)


def test_multi_time_shapes_rejected(gmm8_model):
    with pytest.raises(DomainError):
        gmm8_model.epsilon(np.zeros((3, 2)), np.full((2, 2), 10.0))
    with pytest.raises(DomainError):
        gmm8_model.epsilon(np.zeros((2, 3, 2)), 10.0)
    with pytest.raises(DomainError, match=r"shape \(n, 2\)"):
        gmm8_model.epsilon(np.zeros((3, 1)), 10.0)
    with pytest.raises(DomainError, match=r"t must lie in \[0, "):
        gmm8_model.epsilon(np.zeros((3, 2)), np.array([10.0, np.nan]))


def test_responsibilities_sum_to_one(gmm8_model, rng):
    x = rng.uniform(-3.0, 3.0, size=(200, 2))
    for t in [0.0, 10.0, 250.0, 999.0]:
        g = gmm8_model.responsibilities(x, t)
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(g >= 0.0)


def test_symmetric_pair_zero_score(schedule):
    model = GaussianMixtureOracle(
        schedule=schedule,
        means=np.array([[1.5, 0.0], [-1.5, 0.0]]),
        scales=np.array([0.3, 0.3]),
        weights=np.array([0.5, 0.5]),
    )
    for t in [0.0, 100.0, 900.0]:
        s = model.score(np.zeros(2), t)
        assert np.max(np.abs(s)) < 1e-12


def test_single_gaussian_linear(standard_model, schedule, rng):
    # one standard component: q_t = N(0, I), score = -x, eps = sigma_t x
    x = rng.standard_normal((50, 2))
    for t in [0.0, 50.0, 500.0, 1000.0]:
        _, sigma = schedule.alpha_sigma(t)
        assert np.allclose(standard_model.score(x, t), -x, atol=1e-12)
        assert np.allclose(standard_model.epsilon(x, t), sigma * x, atol=1e-12)


def test_superposition_single_gaussian(standard_model, rng):
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    a, b = 0.7, -1.3
    for t in [10.0, 400.0]:
        lhs = standard_model.epsilon(a * x + b * y, t)
        rhs = a * standard_model.epsilon(x, t) + b * standard_model.epsilon(y, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mixture_density_is_weighted_sum(schedule, rng):
    means = np.array([[1.0, 0.5], [-0.5, 2.0]])
    scales = np.array([0.4, 0.9])
    weights = np.array([0.3, 0.7])
    mix = GaussianMixtureOracle(
        schedule=schedule, means=means, scales=scales, weights=weights
    )
    parts = [
        GaussianMixtureOracle(
            schedule=schedule,
            means=means[k : k + 1],
            scales=scales[k : k + 1],
            weights=np.ones(1),
        )
        for k in range(2)
    ]
    x = rng.uniform(-2, 2, size=(20, 2))
    for t in [0.0, 300.0]:
        q = np.exp(mix.log_density(x, t))
        q_manual = sum(
            w * np.exp(p.log_density(x, t)) for w, p in zip(weights, parts)
        )
        assert np.max(np.abs(q - q_manual) / q_manual) < 1e-12


def test_density_normalizes_1d(schedule):
    model = GaussianMixtureOracle(
        schedule=schedule,
        means=np.array([[0.8], [-0.6]]),
        scales=np.array([0.2, 0.5]),
        weights=np.array([0.4, 0.6]),
    )
    grid = np.linspace(-8.0, 8.0, 20_001)[:, None]
    for t in [0.0, 200.0, 900.0]:
        q = np.exp(model.log_density(grid, t))
        mass = np.trapezoid(q, dx=grid[1, 0] - grid[0, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_noise_prediction_second_moment_bounded(gmm8_model, rng):
    # the ideal prediction is a posterior mean of unit noise, so its
    # second moment cannot exceed the dimension
    n = 8192
    x0 = gmm8_model.sample_data(n, seed=4)
    eps = rng.standard_normal((n, 2))
    for t in [50.0, 250.0, 700.0]:
        x = gmm8_model.schedule.forward_sample(x0, t, eps)
        per_sample = np.sum(gmm8_model.epsilon(x, t) ** 2, axis=1)
        stderr = per_sample.std(ddof=1) / np.sqrt(n)
        assert per_sample.mean() <= 2.0 + 4.0 * stderr


def test_sample_data_moments(gmm8_model):
    data = gmm8_model.sample_data(20_000, seed=0)
    assert data.shape == (20_000, 2)
    # equal weights on a centered circle: mean near 0, radius near 1
    assert np.linalg.norm(data.mean(axis=0)) < 0.02
    radius = np.linalg.norm(data - data.mean(axis=0), axis=1)
    assert abs(radius.mean() - 1.0) < 0.01


def test_sample_data_component_frequencies(gmm8_model):
    data = gmm8_model.sample_data(16_000, seed=1)
    d = np.linalg.norm(data[:, None, :] - gmm8_model.means[None], axis=2)
    counts = np.bincount(d.argmin(axis=1), minlength=8)
    # multinomial(16000, 1/8): sd ~ 42; allow 5 sd
    assert np.all(np.abs(counts - 2000) < 210)


def test_sample_data_deterministic_and_worker_independent(gmm8_model):
    a = gmm8_model.sample_data(3000, seed=9)
    c = gmm8_model.sample_data(3000, seed=9)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, gmm8_model.sample_data(3000, seed=10))


def test_draw_replays_frozen_row_order(gmm8_model):
    # block b of 256 rows: 256 uniforms for the components, then per row the
    # data noise and the extra normals, all from the generator keyed (*key, b)
    x0, normals = gmm8_model.draw(300, (7, 3, 2), extra=2)
    assert normals.shape == (2, 300, 2)
    cdf = np.cumsum(gmm8_model.weights)
    for j in (0, 31, 255, 256, 299):
        b, r = divmod(j, 256)
        rng = derive_rng(7, 3, 2, b)
        u = rng.random(256)
        z = rng.standard_normal(256 * 3 * 2).reshape(256, 3, 2)
        comp = min(int(np.sum(cdf <= u[r])), 7)
        assert np.array_equal(x0[j], gmm8_model.means[comp] + gmm8_model.scales[comp] * z[r, 0])
        for m in range(2):
            assert np.array_equal(normals[m, j], z[r, 1 + m])
    data = gmm8_model.sample_data(50, seed=7)
    assert np.array_equal(data, gmm8_model.draw(50, (7, PURPOSE_DATA, 0))[0])
    with pytest.raises(DomainError):
        gmm8_model.draw(-1, (0, 1, 0))
    for key in [(0, 1), (0, 1, 0, 0), (2**32, 1, 0), (0, 1, -1)]:
        with pytest.raises(DomainError):
            gmm8_model.draw(1, key)


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_draw_counts_must_be_integers(gmm8_model, schedule, n):
    # a float or bool count is refused, naming it, on every path to draw
    traj = make_trajectory("quadratic", 3, schedule)
    base = baseline_tuned(traj, schedule)
    for call in (
        lambda: gmm8_model.draw(n, (0, 1, 0)),
        lambda: gmm8_model.sample_data(n, 0),
        lambda: draw_start_states(gmm8_model, n, 0),
        lambda: step_replacement_sweep(traj, base, SamplerConfig(), gmm8_model, n),
        lambda: error_bound_report(traj, None, SamplerConfig(), gmm8_model, n),
    ):
        with pytest.raises(DomainError, match="^n: must be an integer >= 0"):
            call()
    assert np.array_equal(gmm8_model.draw(np.int64(3), (0, 1, 0))[0], gmm8_model.draw(3, (0, 1, 0))[0])


@pytest.mark.parametrize("extra", [1.5, True, -1])
def test_draw_extra_must_be_an_integer(gmm8_model, extra):
    # the count of extra normals is checked as the row count is
    with pytest.raises(DomainError, match="^extra: must be an integer >= 0"):
        gmm8_model.draw(3, (0, 1, 0), extra=extra)
    assert gmm8_model.draw(3, (0, 1, 0), extra=np.int64(2))[1].shape == (2, 3, 2)


def test_validation_errors(schedule):
    with pytest.raises(DomainError):
        GaussianMixtureOracle(
            schedule=schedule,
            means=np.zeros((2, 2)),
            scales=np.array([0.1, 0.1]),
            weights=np.array([0.5, 0.6]),
        )
    with pytest.raises(DomainError):
        GaussianMixtureOracle(
            schedule=schedule,
            means=np.zeros((2, 2)),
            scales=np.array([0.1, -0.1]),
            weights=np.array([0.5, 0.5]),
        )
    with pytest.raises(DomainError):
        GaussianMixtureOracle(
            schedule=schedule,
            means=np.zeros((2, 2)),
            scales=np.array([0.1]),
            weights=np.array([0.5, 0.5]),
        )
    for means, scales, weights in [
        ([["a", 0.0]], [1.0], [1.0]),
        ([[0.0], [1.0, 1.0]], [1.0, 1.0], [0.5, 0.5]),
        ([[0.0, 0.0]], [None], [1.0]),
        ([[0.0, 0.0]], [1.0], ["1"]),
        ([[]], [1.0], [1.0]),
    ]:
        with pytest.raises(DomainError):
            GaussianMixtureOracle(schedule=schedule, means=means, scales=scales, weights=weights)
    with pytest.raises(DomainError):
        standard_gaussian(schedule, dim=0)
    with pytest.raises(DomainError):
        make_oracle("standard", schedule, dim=0)
    with pytest.raises(DomainError):
        make_oracle("moons", schedule)
    assert make_oracle("standard", schedule, dim=3).dim == 3


def test_non_finite_input_rejected(gmm8_model):
    with pytest.raises(DomainError):
        gmm8_model.score(np.array([np.nan, 0.0]), 10.0)
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 3, 6):
            x = np.zeros((7, 2))
            x[row, row % 2] = bad
            for method in METHODS:
                with pytest.raises(DomainError, match="non-finite point"):
                    getattr(gmm8_model, method)(x, 10.0)
    # finite, but its squared norm overflows
    x = np.zeros((5, 2))
    x[2, 1] = 1e200
    for method in METHODS:
        with pytest.raises(DomainError, match="squared norm overflows"):
            getattr(gmm8_model, method)(x, 10.0)


def test_empty_batch(gmm8_model):
    x = np.zeros((0, 2))
    assert gmm8_model.epsilon(x, 10.0).shape == (0, 2)
    assert gmm8_model.score(x, 10.0).shape == (0, 2)
    assert gmm8_model.epsilon(x, np.array([1.0, 10.0, 500.0])).shape == (3, 0, 2)
    assert gmm8_model.responsibilities(x, 10.0).shape == (0, 8)
    assert gmm8_model.log_density(x, 10.0).shape == (0,)


def test_gmm8_preset(schedule):
    model = gmm8(schedule)
    assert model.dim == 2
    assert len(model.weights) == 8
    assert np.allclose(np.linalg.norm(model.means, axis=1), 1.0)
    assert np.allclose(model.scales, 0.05)
    assert np.allclose(model.weights, 1.0 / 8.0)
