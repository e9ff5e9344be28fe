"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single machine-greppable verdict line before asserting,
so the suite log carries a pass/fail row per criterion. Expensive shared
artifacts (tuned schedules, dense references, 50k-sample metric runs) are
built once at module scope. Budget: the whole file targets well under ten
minutes on a laptop CPU.
"""

import json

import numpy as np
import pytest

from _oracles import finite_difference_gradient, t_of_sigma
from steptuner import (
    NoiseSchedule,
    SamplerConfig,
    TunerConfig,
    baseline_tuned,
    cli,
    make_trajectory,
    optimize_tau,
    tune,
)
from steptuner.analysis import (
    draw_start_states,
    error_bound_report,
    frechet_distance,
    gap_profile,
    generate_paths,
    reference_path,
    step_replacement_sweep,
)
from steptuner.oracle import gmm8, standard_gaussian
from steptuner.samplers import ddim_step, ddim_step_baseline
from steptuner.tuner import StepLoss, diagnostic_loss_curves


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def traj10(schedule):
    return make_trajectory("quadratic", 10, schedule)


@pytest.fixture(scope="module")
def tuned_seq(gmm8_model, traj10):
    cfg = TunerConfig(strategy="sequential", batch=4096, coarse_grid=33, refine_tol=0.01, seed=0)
    tuned, _ = tune(cfg, traj10, SamplerConfig(), gmm8_model)
    return tuned


@pytest.fixture(scope="module")
def tuned_par(gmm8_model, traj10):
    cfg = TunerConfig(strategy="parallel", batch=4096, coarse_grid=33, refine_tol=0.01, seed=0)
    tuned, _ = tune(cfg, traj10, SamplerConfig(), gmm8_model)
    return tuned


@pytest.fixture(scope="module")
def gap_bundle(gmm8_model, schedule, traj10, tuned_seq):
    """Baseline/tuned K=10 and baseline K=20 gap reports on shared paths.

    Each trajectory has one dense reference, whose grid holds its
    checkpoints.
    """
    x_T = draw_start_states(gmm8_model, 4096, 0)
    det = SamplerConfig()
    base10 = baseline_tuned(traj10, schedule, "ddim-family")
    traj20 = make_trajectory("quadratic", 20, schedule)
    base20 = baseline_tuned(traj20, schedule, "ddim-family")
    ref10 = reference_path(x_T, gmm8_model, dense_K=1000, checkpoints=traj10.points)
    ref20 = reference_path(x_T, gmm8_model, dense_K=1000, checkpoints=traj20.points)
    return {
        "base10": gap_profile(generate_paths(x_T, base10, det, gmm8_model), ref10),
        "tuned10": gap_profile(generate_paths(x_T, tuned_seq, det, gmm8_model), ref10),
        "base20": gap_profile(generate_paths(x_T, base20, det, gmm8_model), ref20),
    }


def test_c01_generalized_step_reduces_to_baseline(gmm8_model, standard_model, schedule):
    rng = np.random.default_rng(42)
    fails = 0
    for k in range(1000):
        model = gmm8_model if k % 2 == 0 else standard_model
        t_to = float(rng.uniform(schedule.t_eps, schedule.T - 1.0))
        t_from = float(rng.uniform(t_to + 1e-6, schedule.T))
        x = rng.standard_normal((1, 2))
        a = ddim_step(x, t_from, t_to, t_from, model)
        b = ddim_step_baseline(x, t_from, t_to, model)
        fails += not np.array_equal(a, b)
    ok = fails == 0
    detail = f"{1000 - fails}/1000 tuples bitwise equal"
    _verdict(1, "reduction identity", ok, detail)
    assert ok, detail


def test_c02_schedule_identities(schedule):
    grid = np.linspace(1e-6 * schedule.T, schedule.T, 10_000)
    pairs = np.array([schedule.alpha_sigma(t) for t in grid])
    vp_gap = float(np.abs(pairs[:, 0] ** 2 + pairs[:, 1] ** 2 - 1.0).max())
    lam = np.array([schedule.log_snr(t) for t in grid])
    snr = np.exp(2.0 * lam)
    monotone = bool(np.all(np.diff(lam) < 0) and np.all(np.diff(snr) < 0))
    worst_rt = 0.0
    for lv in lam[:: len(lam) // 200]:
        t_back = schedule.t_from_log_snr(float(lv))
        worst_rt = max(worst_rt, abs(schedule.log_snr(t_back) - lv))
    # compare in t via a second pass: the inverse must reproduce the grid time
    worst_t = max(
        abs(schedule.t_from_log_snr(float(schedule.log_snr(t))) - t) for t in grid[::50]
    )
    ok = vp_gap < 1e-12 and monotone and worst_t <= 1e-9 * schedule.T
    detail = f"vp_gap={vp_gap:.2e}, monotone={monotone}, round_trip={worst_t:.2e}"
    _verdict(2, "schedule suite", ok, detail)
    assert ok, detail


def test_c03_oracle_score_and_responsibilities(gmm8_model, schedule):
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    worst_resp = 0.0
    for _ in range(100):
        x = rng.uniform(-3.5, 3.5, size=(1, 2))
        t = float(rng.uniform(schedule.t_eps, schedule.T))
        got = gmm8_model.score(x, t)[0]
        ref = finite_difference_gradient(lambda y: float(gmm8_model.log_density(y[None], t)[0]), x[0])
        worst_rel = max(worst_rel, float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-12)))
        resp = gmm8_model.responsibilities(x, t)
        worst_resp = max(worst_resp, abs(float(resp.sum()) - 1.0))
    ok = worst_rel < 1e-5 and worst_resp < 1e-12
    detail = f"max_rel_score_err={worst_rel:.2e}, max_resp_gap={worst_resp:.2e}"
    _verdict(3, "oracle correctness", ok, detail)
    assert ok, detail


def test_c04_exact_conditioning_and_dense_reference(standard_model, schedule):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 2))
    worst_step = 0.0
    for t_from, t_to in [(900.0, 450.0), (450.0, 200.0), (200.0, 50.0), (50.0, 10.0)]:
        a_f, s_f = schedule.alpha_sigma(t_from)
        a_t, s_t = schedule.alpha_sigma(t_to)
        sigma_star = (a_t - a_f) / (a_t * s_f - a_f * s_t)
        tau_star = t_of_sigma(schedule, sigma_star)
        stepped = ddim_step(x, t_from, t_to, tau_star, standard_model)
        worst_step = max(worst_step, float(np.abs(stepped - x).max() / np.abs(x).max()))
    x_T = rng.standard_normal((16, 2))
    ref = reference_path(x_T, standard_model, dense_K=1000)
    dense_rel = float(np.abs(ref.states[-1] - x_T).max() / np.abs(x_T).max())
    ok = worst_step < 1e-12 and dense_rel < 1e-3
    detail = f"identity_rel={worst_step:.2e} (<1e-12), dense_rel={dense_rel:.3e} (<1e-3)"
    _verdict(4, "exact conditioning identity", ok, detail)
    assert ok, detail


def test_c05_optimizer_behaviour(gmm8_model, traj10):
    tau_a, _, flag_a = optimize_tau(lambda t: (t - 370.0) ** 2, (0.0, 1000.0), 33, 0.01)
    tau_b, _, flag_b = optimize_tau(lambda t: abs(t - 663.0) ** 1.3, (0.0, 1000.0), 33, 0.01)
    synthetic_ok = abs(tau_a - 370.0) <= 0.01 and abs(tau_b - 663.0) <= 0.01
    unflagged_ok = not flag_a and not flag_b

    i = 5
    lo, hi = traj10.points[i - 1], traj10.points[i]

    loss = StepLoss(i, traj10, gmm8_model, batch=1024, seed=0)

    def f(taus):
        return [e.value for e in loss.site(0, (hi,))(taus)]

    tau_star, _, _ = optimize_tau(f, (lo, hi), 33, 0.01)
    dense = np.linspace(lo, hi, 1001)
    vals = np.array(f(dense))
    cell = (hi - lo) / 1000.0
    grid_gap = abs(tau_star - dense[int(vals.argmin())])

    _, _, flag_lo = optimize_tau(lambda t: t, (5.0, 50.0), 17, 0.01)
    _, _, flag_hi = optimize_tau(lambda t: -t, (5.0, 50.0), 17, 0.01)
    ok = synthetic_ok and unflagged_ok and grid_gap <= cell + 1e-9 and flag_lo and flag_hi
    detail = (
        f"synthetic={synthetic_ok}, grid_gap={grid_gap:.3f} (cell {cell:.3f}), "
        f"boundary_flags={flag_lo and flag_hi}"
    )
    _verdict(5, "optimizer", ok, detail)
    assert ok, detail


def test_c06_gap_accumulation_and_tuning(gap_bundle):
    base = gap_bundle["base10"]
    tuned = gap_bundle["tuned10"]
    k20 = gap_bundle["base20"]
    final_gap = base.rows[0][2]
    late_gap = base.rows[9][2]  # checkpoint nearest 80% of T
    accumulation_ok = final_gap > late_gap
    k20_ok = k20.rows[0][2] < final_gap
    wins = 0
    for (_, t, mb, sb, _), (_, _, mt, st, _) in zip(base.rows, tuned.rows):
        if mt <= mb + 3.0 * float(np.hypot(sb, st)):
            wins += 1
    need = int(np.ceil(0.8 * len(base.rows)))
    tuned_ok = wins >= need
    ok = accumulation_ok and k20_ok and tuned_ok
    detail = (
        f"final={final_gap:.4f}>late={late_gap:.5f}: {accumulation_ok}, "
        f"K20_final={k20.rows[0][2]:.4f}<K10: {k20_ok}, "
        f"tuned_wins={wins}/{len(base.rows)} need>={need}: {tuned_ok}"
    )
    _verdict(6, "gap profile", ok, detail)
    assert ok, detail


def test_c07_replacement_sweep_monotonicity(gmm8_model, traj10, tuned_seq):
    per_seed = []
    for seed in (0, 1, 2):
        reports = step_replacement_sweep(
            traj10, tuned_seq, SamplerConfig(), gmm8_model, 50_000, seed=seed,
            data_seed=seed + 1,
        )
        fds = [r.frechet for r in reports]
        noninc = sum(fds[m + 1] <= fds[m] for m in range(len(fds) - 1))
        per_seed.append((noninc, fds[-1] < fds[0]))
    ok = all(n >= 8 and better for n, better in per_seed)
    detail = ", ".join(
        f"seed{s}: noninc={n}/10 tuned_better={b}" for s, (n, b) in enumerate(per_seed)
    )
    _verdict(7, "replacement sweep", ok, detail)
    assert ok, detail


def test_c08_loss_curve_argmin_agreement(gmm8_model, traj10):
    offenders = []
    for i in range(1, 11):
        curves = diagnostic_loss_curves(
            i, traj10, gmm8_model, batch=4096, seed=0, n_grid=101
        )
        ja = int(np.argmin(curves["consistency"]))
        jb = int(np.argmin(curves["denoising"]))
        if abs(ja - jb) > 1:
            offenders.append((i, ja, jb))
    ok = not offenders
    detail = f"argmin cells within 1 at all steps" if ok else f"offending steps {offenders}"
    _verdict(8, "objective argmin agreement", ok, detail)
    assert ok, detail


def test_c09_sequential_not_worse_than_parallel(gmm8_model, tuned_seq, tuned_par):
    fd_s, fd_p = [], []
    for s in (0, 1, 2):
        x_T = draw_start_states(gmm8_model, 50_000, 100 + s)
        data = gmm8_model.sample_data(50_000, 200 + s)
        det = SamplerConfig()
        fd_s.append(frechet_distance(generate_paths(x_T, tuned_seq, det, gmm8_model).states[-1], data))
        fd_p.append(frechet_distance(generate_paths(x_T, tuned_par, det, gmm8_model).states[-1], data))
    fd_s, fd_p = np.array(fd_s), np.array(fd_p)
    se = float(np.hypot(fd_s.std(ddof=1), fd_p.std(ddof=1)) / np.sqrt(3.0))
    ok = fd_s.mean() <= fd_p.mean() + 3.0 * se
    detail = f"seq={fd_s.mean():.3e}, par={fd_p.mean():.3e}, 3se={3 * se:.3e}"
    _verdict(9, "strategy comparison", ok, detail)
    assert ok, detail


def test_c10_pathwise_error_bound(standard_model, traj10):
    rows = error_bound_report(traj10, None, SamplerConfig(), standard_model, 4096, seed=0)
    holds = [bool(r["holds"]) for r in rows]
    ok = all(holds) and len(rows) == 10
    worst = max((r["lhs"] - r["bound"]) / max(r["bound"], 1e-300) for r in rows)
    detail = f"holds at {sum(holds)}/10 steps, worst lhs/bound margin={worst:.2e}"
    _verdict(10, "error bound", ok, detail)
    assert ok, detail


def test_c11_cli_reproducibility(tmp_path, capsys):
    cfg_doc = {
        "oracle": {"preset": "gmm8"},
        "trajectory": {"kind": "quadratic", "K": 3},
        "tuner": {"batch": 64, "coarse_grid": 5, "refine_tol": 1.0},
        "out_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_doc))
    tuned = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", str(cfg), "--out", str(tuned)]) == 0

    jobs = {
        "tune": ["tune", "--config", str(cfg)],
        "sample": ["sample", "--config", str(cfg), "--n", "300"],
        "gap": ["gap", "--config", str(cfg), "--n", "64"],
        "sweep": ["sweep", "--config", str(cfg), "--tuned", str(tuned), "--n", "300"],
        "eval": ["eval", "--config", str(cfg), "--tuned", str(tuned), "--n", "300"],
    }
    mismatches = []
    for name, argv in jobs.items():
        blobs = []
        for run, workers in [("a", "1"), ("b", "1"), ("c", "8")]:
            out = tmp_path / f"{name}_{run}.bin"
            code = cli.main(argv + ["--out", str(out), "--workers", workers])
            assert code == 0, (name, run)
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(name)
    capsys.readouterr()
    ok = not mismatches
    detail = "all 5 subcommands byte-identical across reruns and workers 1/8" if ok else f"mismatched: {mismatches}"
    _verdict(11, "cli reproducibility", ok, detail)
    assert ok, detail
