"""steptuner benchmark: one workload per invocation, checked outputs, JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tune-seq --seed 1 --seconds 26 --trace 0

The program is imported from the checkout's ``src``; nothing is installed.
Set-up time is the median of several fresh interpreters that import
steptuner and build the workload's inputs. The workload itself runs in one
child process with BLAS/OpenMP threads pinned to 1. Every time reported as
a metric is rescaled to a reference machine speed by a calibration kernel
timed in the same process (see ``child.py``).

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_s, cpu_s, peak_rss_mb);
with ``--trace 1`` they are the per-layer ones measured by ``tracing.py``.
The lines before it hold the full report: quartiles and sample counts,
error_rate, tune_loss_ratio, ref_err, invariants, output hashes and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
# files of the program that every workload needs
REQUIRED = ("src/steptuner/cli.py", "configs/gmm8.json", "configs/gmm8_dpm2.json",
            "configs/standard.json")
# set-up probes per run, half before and half after the workload, so that
# their median spans the run's changes in machine load
SETUP_PROBES = 8
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# a run must end within 180 s; the workload gets what the set-up probes leave
DEADLINE_S = 150.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def _child(args: list, env: dict, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(CHILD)] + args, env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def summary(values: list) -> dict:
    """Median, quartiles and count, as statistics.quantiles gives them."""
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def final_line(result: dict, trace: bool) -> dict:
    """The result object the last output line carries."""
    if trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"]["median"], "unit": "s"},
            "wall_s": {"value": result["wall_s"]["median"], "unit": "s"},
            "cpu_s": {"value": result["cpu_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a steptuner checkout, missing {missing}", file=sys.stderr)
        return 2

    start = perf_counter()
    env = _env()
    probes = 0 if args.trace else SETUP_PROBES // 2

    def setup_probes() -> list:
        return [json.loads(_child(["setup", args.workload], env, 30)) for _ in range(probes)]

    setup = setup_probes()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        line = _child(
            ["run", args.workload, str(args.seed), repr(args.seconds), str(args.trace),
             str(workdir)],
            env, DEADLINE_S - (perf_counter() - start),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    setup += setup_probes()
    result = json.loads(line)
    if not args.trace:
        result["setup_s"] = summary([probe["scaled"] for probe in setup])
        result["raw_setup_s"] = summary([probe["raw"] for probe in setup])
    print(json.dumps(result, indent=1))
    print(json.dumps(final_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
