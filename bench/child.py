"""The benchmark's workload process: ``setup`` and ``run`` modes.

``python3 bench/child.py setup <workload>`` prints the seconds a fresh
interpreter takes to import steptuner and build the workload's inputs, raw
and rescaled by the calibration kernel timed right after.

``python3 bench/child.py run <workload> <seed> <seconds> <trace> <workdir>``
runs a tiny warm-up iteration, then timed iterations until the next one
would overrun ``seconds``, checks every output, checks the workload's
invariants once, and prints one JSON object as its last line. With trace
set, one untraced iteration comes first, and the tracer is installed for
the rest, so the difference in wall time is the tracing overhead.

Right before and right after each timed iteration a fixed kernel is timed
on as many threads as the workload keeps busy, and the iteration's times
are rescaled by ``CAL_REF_S`` over the median kernel time: ``wall_s`` and
``cpu_s`` are seconds at the speed the machine had when the benchmark was
defined. The speed of a shared VM drifts by tens of percent over
minutes; the rescaling takes that drift out of the comparison of two runs
and leaves changes to the program in. Raw seconds are reported beside them.

The parent ``run.py`` starts this process with PYTHONPATH at the
checkout's ``src`` and BLAS/OpenMP threads pinned to 1.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from run import THREAD_ENV, summary
from workloads import (
    FULL,
    REF_ERR_LIMIT,
    TINY,
    WORKERS,
    WORKLOADS,
    Sizes,
    Workload,
    reference_error,
    sample_argv,
    setup_seconds,
    sha256,
)


# median calibration kernel time, by thread count, on the 2-vCPU VM the
# benchmark was defined on
CAL_REF_S = {1: 0.02, 2: 0.037}
# calibration kernel, in equal parts by time: small-array numpy operations
# shaped like the oracle's, and a pure-Python loop
CAL_ROWS, CAL_LOOPS, CAL_PY_STEPS, CAL_REPEATS = 1024, 30, 110_000, 5


def calibration_times(threads: int = 1) -> list:
    """Times of a fixed kernel run on ``threads`` threads at once.

    The kernel does not depend on steptuner. On two threads it contends for
    the GIL and for the VM's vCPUs as the workload's thread pool does.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 2 * CAL_ROWS).reshape(CAL_ROWS, 2)
    means = np.linspace(-2.0, 2.0, 16).reshape(8, 2)

    def kernel() -> None:
        for _ in range(CAL_LOOPS):
            d = x[:, None, :] - means[None]
            np.exp(-0.5 * (d * d).sum(-1)).sum()
        acc = 0
        for i in range(CAL_PY_STEPS):
            acc += i * i % 7

    times = []
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        if threads == 1:
            kernel()
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(kernel) for _ in range(threads)]:
                    future.result()
        times.append(perf_counter() - start)
    return times


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    cal_s: float = 0.0  # median kernel time around the iteration
    scale: float = 1.0  # CAL_REF_S over cal_s
    command_wall_s: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    readouts: dict = field(default_factory=dict)
    bytes_written: int = 0


def run_cli(argv: list) -> tuple:
    """Exit code and captured output of one in-process CLI call."""
    import steptuner.cli

    log = io.StringIO()
    with redirect_stdout(log), redirect_stderr(log):
        try:
            code = steptuner.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = 1
    return code, log.getvalue()


def run_iteration(commands: list, outdir: Path, threads: int = 1) -> Iteration:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    it = Iteration()
    cal = calibration_times(threads)
    for cmd in commands:
        wall0, cpu0 = perf_counter(), process_time()
        code, log = run_cli(cmd.argv)
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        it.wall_s += wall
        it.cpu_s += cpu
        it.command_wall_s[cmd.label] = wall
        if code != 0:
            it.failures.append(f"{cmd.label}: exit {code}: {log.strip()[-300:]}")
            continue
        try:
            it.readouts.update(cmd.check())
        except Exception as exc:  # any malformed output fails the check
            it.failures.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
            continue
        for path in cmd.outputs:
            it.hashes[f"{cmd.label}:{path.name}"] = sha256(path)
    it.bytes_written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
    it.cal_s = statistics.median(cal + calibration_times(threads))
    it.scale = CAL_REF_S[threads] / it.cal_s
    return it


def invariants(workload: Workload, sizes: Sizes, seed: int, workdir: Path) -> list:
    """Once-per-invocation checks, as (name, ok, detail, readouts)."""
    out = []
    if workload.name == "sample-eval":
        # acceptance 11 at benchmark size: the worker count never changes output
        timed = workdir / "out" / "sample.csv"
        single = workdir / "sample_workers1.csv"
        code, _ = run_cli(sample_argv(sizes, seed, single, 1))
        ok = code == 0 and timed.exists() and timed.read_bytes() == single.read_bytes()
        out.append(("sample_workers_identity", ok, f"workers 1 vs {WORKERS}, exit {code}", {}))
    if workload.name == "gap-dense":
        err = reference_error(sizes.ref_n, seed)
        ok = math.isfinite(err) and err <= REF_ERR_LIMIT
        out.append(("ref_err_identity", ok, f"ref_err {err!r} <= {REF_ERR_LIMIT}", {"ref_err": err}))
    return out


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _scaled(iterations: list, key: str) -> dict:
    """Summary of one time per iteration, rescaled to the reference speed."""
    return summary([getattr(it, key) * it.scale for it in iterations])


def _median_layers(layer_runs: list) -> dict:
    names = layer_runs[0].keys()
    return {
        name: {
            "value": statistics.median(run[name][0] for run in layer_runs),
            "unit": layer_runs[0][name][1],
        }
        for name in names
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = FULL) -> dict:
    commands = workload.build(sizes, seed, workdir)
    outdir = workdir / "out"
    warm = run_iteration(workload.build(TINY, seed, workdir), outdir)
    iterations, traced = [], []
    tracer = None
    start = perf_counter()
    if trace:
        from tracing import Tracer, layer_metrics

        iterations.append(run_iteration(commands, outdir, workload.threads))
        tracer = Tracer()
        tracer.install()
    try:
        while True:
            it = run_iteration(commands, outdir, workload.threads)
            if tracer is not None:
                layers = layer_metrics(tracer.reset())
                layers["cli.bytes_written"] = (it.bytes_written, "bytes")
                traced.append((it, layers))
            else:
                iterations.append(it)
            elapsed = perf_counter() - start
            walls = [i.wall_s for i in iterations] + [i.wall_s for i, _ in traced]
            if elapsed + statistics.median(walls) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    checks = invariants(workload, sizes, seed, workdir)

    every = iterations + [i for i, _ in traced]
    failures = [f for it in every for f in it.failures]
    failures += [f"invariant {name}: {detail}" for name, ok, detail, _ in checks if not ok]
    failed = sum(1 for it in every if it.failures) + sum(1 for c in checks if not c[1])
    attempted = len(every) + len(checks)
    readouts = {
        key: summary([it.readouts[key] for it in every if key in it.readouts])
        for key in sorted({k for it in every for k in it.readouts})
    }
    for _, _, _, values in checks:
        readouts.update(values)
    result = {
        "workload": workload.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:10],
        "warmup_failures": warm.failures,
        "wall_s": _scaled(iterations, "wall_s"),
        "cpu_s": _scaled(iterations, "cpu_s"),
        "raw_wall_s": summary([it.wall_s for it in iterations]),
        "raw_cpu_s": summary([it.cpu_s for it in iterations]),
        "calibration_s": summary([it.cal_s for it in iterations]),
        "command_wall_s": {
            label: summary([it.command_wall_s[label] for it in iterations])
            for label in iterations[0].command_wall_s
        },
        "peak_rss_mb": peak_rss_mb,
        "readouts": readouts,
        "invariants": {name: {"ok": ok, "detail": d} for name, ok, d, _ in checks},
        "sha256": every[-1].hashes,
        "sha256_stable": all(it.hashes == every[-1].hashes for it in every),
        "environment": environment(),
    }
    if traced:
        layers = _median_layers([lay for _, lay in traced])
        ratio = readouts.get("tune_loss_ratio", {}).get("median", 0.0)
        layers["tuner.loss_ratio"] = {"value": ratio, "unit": "ratio"}
        layers["analysis.ref_err"] = {"value": readouts.get("ref_err", 0.0), "unit": "ratio"}
        traced_wall = statistics.median(i.wall_s for i, _ in traced)
        layers["bench.trace_overhead_s"] = {
            "value": traced_wall - result["raw_wall_s"]["median"], "unit": "s"
        }
        result["traced_wall_s"] = summary([i.wall_s for i, _ in traced])
        result["layers"] = layers
    return result


def main(argv: list) -> int:
    mode, name = argv[0], argv[1]
    workload = WORKLOADS[name]
    if mode == "setup":
        raw = setup_seconds(workload)
        cal = statistics.median(calibration_times())
        print(json.dumps({"raw": raw, "scaled": raw * CAL_REF_S[1] / cal}))
        return 0
    seed, seconds, trace, workdir = int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
    print(json.dumps(run(workload, seed, seconds, trace, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
