"""Smoke test of the benchmark at tiny sizes; runs in well under a minute.

    python3 bench/test_bench.py

Checks that each workload emits every metric BENCHMARK.json declares, with
its unit, plus the report fields the end-to-end metrics leave out, and
that truncating any one checked output is counted as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import steptuner.cli  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class BenchmarkSmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = ROOT / ".bench_work" / "smoke-test"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_tiny(self, name: str, trace: bool) -> dict:
        result = child.run(WORKLOADS[name], 7, 0.1, trace, self.workdir, sizes=TINY)
        if not trace:
            result["setup_s"] = run.summary([0.2, 0.3])
        return result

    def test_workload_names_match_spec(self) -> None:
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self) -> None:
        for name in WORKLOADS:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = self.run_tiny(name, trace)
                    line = run.final_line(result, trace)
                    self.assertTrue(line["correct"], result["failures"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    units = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(units, declared(kind))
                    for metric in line["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertEqual(result["error_rate"], 0.0)
                    for key in ("wall_s", "cpu_s", "setup_s"):
                        if key in result:
                            self.assertIn("median", result[key])
                    if name.startswith("tune-"):
                        self.assertIn("tune_loss_ratio", result["readouts"])
                    if name == "gap-dense":
                        self.assertLess(result["readouts"]["ref_err"], 1e-2)

    def test_truncated_output_counts_as_failure(self) -> None:
        real_main = steptuner.cli.main
        try:
            for name, workload in WORKLOADS.items():
                for cmd in workload.build(TINY, 7, self.workdir):
                    target = cmd.outputs[-1]

                    def truncating_main(argv, target=target):
                        code = real_main(argv)
                        if target.exists():
                            text = target.read_text()
                            target.write_text(text[: len(text) // 2])
                        return code

                    steptuner.cli.main = truncating_main
                    with self.subTest(workload=name, output=target.name):
                        result = self.run_tiny(name, False)
                        self.assertFalse(run.final_line(result, False)["correct"])
                        self.assertGreaterEqual(result["failed"], 1)
                        for failure in result["failures"]:
                            self.assertTrue(
                                failure.startswith((f"{cmd.label}:", "invariant")), failure
                            )
        finally:
            steptuner.cli.main = real_main

if __name__ == "__main__":
    unittest.main()
