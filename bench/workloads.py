"""The benchmark's workloads: CLI commands, output checks, set-up and ref_err probes.

Every workload runs the gmm8 oracle on the quadratic K=10 trajectory
through the public entry point ``steptuner.cli.main``. One iteration is a
fixed list of commands; each command's outputs are checked after it
returns, outside the timed region. ``sample-eval`` and ``gap-dense`` read
their tuned times from a fixture kept with the benchmark, so a change to
the tuner or to the RNG contract does not change their inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
INPUTS = Path(__file__).resolve().parent / "inputs"
TUNED_FIXTURE = INPUTS / "gmm8_k10_ddim_tuned.json"
ETA07_CONFIG = INPUTS / "gmm8_eta07.json"
STANDARD_CONFIG = CONFIGS / "standard.json"

K = 10
T = 1000.0
# thread-pool width of sample-eval; equals the core count of the machine the
# benchmark was defined on, so the load never exceeds nproc there
WORKERS = 2
# dense steps of the reference, as the gap command uses
DENSE_K = 1000
# a first-order 1000-step reference misses the identity map of the standard
# preset by 1.9e-3; five times that means the reference itself is broken
REF_ERR_LIMIT = 1e-2

TUNE_HEADER = "i,t_i,tau_i,loss_baseline,loss_tuned,stderr,boundary_flag"
GAP_HEADER = "step_index,t,mean_gap,stderr,n_paths"


class CheckError(Exception):
    """An output that does not satisfy its contract."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one iteration.

    An iteration of the full sizes takes 2-5 s on a 2-vCPU VM, so that a
    run's median is taken over several of them.
    """

    seq_batch: Optional[int]  # tune-seq; None keeps the batch of the config file
    dpm2_batch: Optional[int]  # tune-dpm2; None keeps the batch of the config file
    tune_grid: Optional[int]  # None keeps the coarse grid of the config file
    sample_n: int
    eval_n: int
    noisy_n: int  # stochastic (eta 0.7) sample
    gap_n: int
    ref_n: int  # rows for the ref_err invariant; the error is row-independent


FULL = Sizes(seq_batch=2048, dpm2_batch=1024, tune_grid=None, sample_n=10_000,
             eval_n=10_000, noisy_n=2048, gap_n=4096, ref_n=1024)
# warm-up iterations and the smoke test
TINY = Sizes(seq_batch=64, dpm2_batch=64, tune_grid=5, sample_n=300, eval_n=300,
             noisy_n=64, gap_n=128, ref_n=64)


@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    outputs: tuple  # primary output paths, hashed after a passing check
    check: Callable[[], dict]  # raises on a bad output, returns readouts


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    config: Path  # the config whose set-up setup_s times
    uses_fixture: bool
    threads: int  # threads its timed commands keep busy; the calibration uses as many
    build: Callable  # (sizes, seed, workdir) -> list of Command


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _floats(fields, what: str) -> list:
    values = [float(v) for v in fields]
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"{what}: non-finite value in {fields}")
    return values


def _rows(path: Path, header: Optional[str], width: int) -> list:
    """Parsed CSV rows; the file must end with a newline, as written."""
    text = path.read_text()
    if not text.endswith("\n"):
        raise CheckError(f"{path.name}: missing final newline (truncated?)")
    lines = text[:-1].split("\n")
    if header is not None:
        if lines[0] != header:
            raise CheckError(f"{path.name}: header {lines[0]!r}")
        lines = lines[1:]
    rows = [line.split(",") for line in lines]
    for row in rows:
        if len(row) != width:
            raise CheckError(f"{path.name}: row with {len(row)} fields: {row}")
    return rows


def check_tune(json_path: Path, csv_path: Path, sites: int) -> dict:
    from steptuner.trajectory import tuned_from_json

    tuned = tuned_from_json(json_path.read_text())
    if tuned.base.K != K or len(tuned.taus) != K * sites:
        raise CheckError(f"tuned JSON has K={tuned.base.K}, {len(tuned.taus)} taus")
    if len(tuned.bounds) != len(tuned.taus):
        raise CheckError("tuned JSON has one bound per tau missing")
    for tau, (lo, hi) in zip(tuned.taus, tuned.bounds):
        _floats((tau, lo, hi), "tuned JSON")
        if not lo <= tau <= hi:
            raise CheckError(f"tau {tau} outside its bound [{lo}, {hi}]")
    rows = _rows(csv_path, TUNE_HEADER, 7)
    if len(rows) != K * sites:
        raise CheckError(f"tune CSV has {len(rows)} rows, expected {K * sites}")
    baseline = tuned_sum = 0.0
    for row in rows:
        _, _, _, loss_b, loss_t, _, _ = _floats(row, "tune CSV")
        if not loss_t <= loss_b:
            raise CheckError(f"tuned loss {loss_t} above baseline {loss_b}")
        baseline += loss_b
        tuned_sum += loss_t
    return {"tune_loss_ratio": tuned_sum / baseline}


def check_samples(path: Path, n: int) -> dict:
    rows = _rows(path, None, 2)
    if len(rows) != n:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {n}")
    for row in rows:
        _floats(row, path.name)
    return {}


def check_eval(path: Path, n: int) -> dict:
    doc = json.loads(path.read_text())
    _floats(
        [doc[k] for k in ("frechet", "sliced_wasserstein", "mean_delta", "cov_delta")],
        path.name,
    )
    if not doc["n_a"] == doc["n_b"] == n:
        raise CheckError(f"eval counts n_a={doc['n_a']} n_b={doc['n_b']}, expected {n}")
    return {}


def check_gap(path: Path, n: int) -> dict:
    rows = _rows(path, GAP_HEADER, 5)
    if len(rows) != K + 1:
        raise CheckError(f"gap CSV has {len(rows)} rows, expected {K + 1}")
    for row in rows:
        _floats(row, "gap CSV")
        if int(row[4]) != n:
            raise CheckError(f"gap CSV row over {row[4]} paths, expected {n}")
    last = rows[-1]
    if int(last[0]) != K or float(last[1]) != T or float(last[2]) != 0.0:
        raise CheckError(f"gap at t=T is not exactly 0: {last}")
    return {}


def _tune_config(name: str, batch: Optional[int], grid: Optional[int],
                 workdir: Path) -> Path:
    """The config as checked in, or a copy with another batch or grid."""
    src = CONFIGS / name
    if batch is None and grid is None:
        return src
    doc = json.loads(src.read_text())
    if batch is not None:
        doc["tuner"]["batch"] = batch
    if grid is not None:
        doc["tuner"]["coarse_grid"] = grid
    dst = workdir / f"batch{batch}-grid{grid}-{name}"
    dst.write_text(json.dumps(doc))
    return dst


def _tune(config: str, sites: int, batch: Callable[[Sizes], Optional[int]]):
    def build(sizes: Sizes, seed: int, workdir: Path) -> list:
        cfg = _tune_config(config, batch(sizes), sizes.tune_grid, workdir)
        out = workdir / "out" / "tuned.json"
        csv = out.with_suffix(".csv")
        argv = ["tune", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
        return [Command("tune", argv, (out, csv), lambda: check_tune(out, csv, sites))]

    return build


def _with_fixture(subcommand: str, config: Path, n: int, seed: int, out: Path,
                  workers: int = 1) -> list:
    return [
        subcommand, "--config", str(config), "--tuned", str(TUNED_FIXTURE),
        "--n", str(n), "--seed", str(seed), "--workers", str(workers),
        "--out", str(out),
    ]


def sample_argv(sizes: Sizes, seed: int, out: Path, workers: int) -> list:
    """The eta-0 sample command of sample-eval."""
    return _with_fixture("sample", CONFIGS / "gmm8.json", sizes.sample_n, seed, out, workers)


def _sample_eval(sizes: Sizes, seed: int, workdir: Path) -> list:
    out = workdir / "out"
    gmm8 = CONFIGS / "gmm8.json"
    sample, ev, noisy = out / "sample.csv", out / "eval.json", out / "sample_eta07.csv"
    return [
        Command("sample", sample_argv(sizes, seed, sample, WORKERS),
                (sample,), lambda: check_samples(sample, sizes.sample_n)),
        Command("eval", _with_fixture("eval", gmm8, sizes.eval_n, seed, ev, WORKERS),
                (ev,), lambda: check_eval(ev, sizes.eval_n)),
        Command("sample_eta07",
                _with_fixture("sample", ETA07_CONFIG, sizes.noisy_n, seed, noisy, WORKERS),
                (noisy,), lambda: check_samples(noisy, sizes.noisy_n)),
    ]


def _gap_dense(sizes: Sizes, seed: int, workdir: Path) -> list:
    gap = workdir / "out" / "gap.csv"
    argv = _with_fixture("gap", CONFIGS / "gmm8.json", sizes.gap_n, seed, gap)
    return [Command("gap", argv, (gap,), lambda: check_gap(gap, sizes.gap_n))]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("tune-seq", CONFIGS / "gmm8.json", False, 1,
                 _tune("gmm8.json", 1, lambda s: s.seq_batch)),
        Workload("tune-dpm2", CONFIGS / "gmm8_dpm2.json", False, 1,
                 _tune("gmm8_dpm2.json", 2, lambda s: s.dpm2_batch)),
        Workload("sample-eval", CONFIGS / "gmm8.json", True, WORKERS, _sample_eval),
        Workload("gap-dense", CONFIGS / "gmm8.json", True, 1, _gap_dense),
    ]
}


def setup_seconds(workload: Workload) -> float:
    """Import steptuner and build one workload's inputs; call in a fresh interpreter."""
    start = perf_counter()
    from steptuner.config import load_config
    from steptuner.trajectory import tuned_from_json

    cfg = load_config(workload.config)
    schedule = cfg.schedule.build()
    cfg.oracle.build(schedule)
    cfg.trajectory.build(schedule)
    if workload.uses_fixture:
        tuned_from_json(TUNED_FIXTURE.read_text())
    return perf_counter() - start


def reference_error(n: int, seed: int) -> float:
    """Relative error at t=0 of the dense reference on the standard preset.

    The standard preset's data and every noised marginal are N(0, I), so its
    exact probability-flow map is the identity and x_0 should equal x_T.
    """
    import numpy as np
    from steptuner.analysis import draw_start_states, reference_path
    from steptuner.config import load_config

    cfg = load_config(STANDARD_CONFIG)
    schedule = cfg.schedule.build()
    model = cfg.oracle.build(schedule)
    x_T = draw_start_states(model, n, seed)
    x_0 = reference_path(x_T, model, DENSE_K).states[-1]
    return float(
        np.linalg.norm(x_0 - x_T, axis=1).mean() / np.linalg.norm(x_T, axis=1).mean()
    )
