"""Minor page faults, system and CPU seconds of the benchmark's CLI commands.

Runs the six commands of the benchmark's four workloads (``WORKLOADS`` in
bench/workloads.py) through ``steptuner.cli.main``, at the benchmark's full
sizes (``FULL``). Each workload runs in a fresh interpreter, as in the
benchmark, since what one command leaves in the allocator changes the
faults of the next: one warm-up pass over its commands, then ``--runs``
passes. For each command it prints the median over the runs of one call's
minor page faults (``ru_minflt``), system seconds and CPU seconds (user +
system), from ``getrusage`` of that process, with BLAS and OpenMP pinned
to one thread as the benchmark pins them.

    python3 scripts/page_faults.py [--runs 5] [--seed 0] [--workload NAME]

``--workload`` runs that one workload in this process. The script measures
the checkout it sits in: that checkout's src and bench come first on
``sys.path``. Outputs go to a temporary directory, and each one is checked
as the benchmark checks it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import steptuner.cli  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402


def usage() -> tuple:
    """(minor faults, system seconds, CPU seconds) of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_stime, r.ru_utime + r.ru_stime


def run_once(command) -> tuple:
    """(faults, sys_s, cpu_s) of one CLI call; raises if the call or its check fails."""
    before = usage()
    with contextlib.redirect_stdout(io.StringIO()):
        code = steptuner.cli.main(command.argv)
    after = usage()
    if code != 0:
        raise RuntimeError(f"{command.label}: exit {code}")
    command.check()
    return tuple(b - a for a, b in zip(before, after))


def measure(name: str, runs: int, seed: int) -> None:
    """Warm up, run and print one workload's commands in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = WORKLOADS[name].build(FULL, seed, Path(tmp))
        for cmd in commands:
            run_once(cmd)
        values = {cmd.label: [] for cmd in commands}
        for _ in range(runs):
            for cmd in commands:
                values[cmd.label].append(run_once(cmd))
    for label, rows in values.items():
        faults, sys_s, cpu_s = (statistics.median(col) for col in zip(*rows))
        print(f"{name + ':' + label:<26} {faults:>8.0f} {sys_s:>8.4f} {cpu_s:>8.4f}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="measured passes")
    parser.add_argument("--seed", type=int, default=0, help="--seed of every command")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this one")
    args = parser.parse_args(argv)
    if args.workload is not None:
        measure(args.workload, args.runs, args.seed)
        return 0
    # BLAS and OpenMP on one thread, as the benchmark runs them
    env = dict(os.environ, **{key: "1" for key in THREAD_ENV})
    print(f"{'command':<26} {'minflt':>8} {'sys_s':>8} {'cpu_s':>8}", flush=True)
    for name in WORKLOADS:
        subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--runs", str(args.runs), "--seed", str(args.seed)],
            env=env, check=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
