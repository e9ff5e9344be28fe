"""Run the command line's byte-identity loop, or diff two runs of it by number.

    python3 scripts/outputs.py DIR          # run the loop in DIR, print sha256s
    python3 scripts/outputs.py --diff A B   # compare two such directories

The loop runs the subcommands of the checkout this script sits in (its
``src`` comes first on ``PYTHONPATH``), each in a fresh interpreter, on
copies of configs/*.json and bench/inputs/*.json placed in DIR (made if
missing), with paths relative to DIR so that the ``.meta.json`` sidecars
do not depend on where DIR is. It covers every subcommand on the three
shipped configs, the stochastic (eta 0.7) sampler on the benchmark's tuned
fixture, the tuner's other branches (wide bounds, the parallel strategy, a
step that falls back to its untuned time) and a gap whose checkpoints are
off the dense grid: 81 files. It then prints ``sha256  path`` for each
output, sorted by path. A refactor that should not change any number is
checked by running it with both commits into two directories and comparing
the lists.

``--diff`` is for a change that may move outputs in the last bits (a
different reduction order, say). For each output of A that differs from
B's it prints the largest relative difference |a - b| / max(|a|, |b|)
between corresponding numbers and how many changed; the other files print
"byte-identical".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "gmm8_k10_ddim_tuned.json"
ETA07 = "gmm8_eta07.json"
# tuner settings of the variant configs, merged into the config's tuner block
VARIANTS = {
    "wide": {"bounds": "wide"},  # the grid misses the untuned time
    "parallel": {"strategy": "parallel"},
    "fallback": {"batch": 512, "coarse_grid": 17, "seed": 1},
}
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def write_variants(work: Path) -> None:
    """The variant configs next to their base configs in work."""
    for c in ("gmm8", "gmm8_dpm2"):
        for v, edit in VARIANTS.items():
            doc = json.loads((work / f"{c}.json").read_text())
            doc["tuner"].update(edit)
            (work / f"{c}_{v}.json").write_text(json.dumps(doc))
    doc = json.loads((work / "gmm8.json").read_text())
    doc["trajectory"]["kind"] = "log-snr"  # checkpoints off the dense grid
    (work / "gmm8_logsnr.json").write_text(json.dumps(doc))


def commands() -> list:
    """The loop's command lines, without the program name, in running order."""
    cmds = []
    for c in ("gmm8", "gmm8_dpm2", "standard"):
        cfg, o = ["--config", f"{c}.json"], f"o_{c}"
        tuned = ["--tuned", f"{o}/tuned.json"]
        cmds += [
            ["tune", *cfg, "--out", f"{o}/tuned.json"],
            ["sample", *cfg, "--n", "2048", "--out", f"{o}/sample_base.csv"],
            ["sample", *cfg, "--n", "2048", *tuned, "--out", f"{o}/sample_tuned.csv"],
            ["gap", *cfg, "--n", "1024", "--out", f"{o}/gap_base.csv"],
            ["gap", *cfg, "--n", "1024", *tuned, "--out", f"{o}/gap_tuned.csv"],
            ["sweep", *cfg, "--n", "2048", *tuned, "--out", f"{o}/sweep.csv"],
            ["eval", *cfg, "--n", "4096", *tuned, "--out", f"{o}/eval_tuned.json"],
            ["eval", *cfg, "--n", "3001", "--out", f"{o}/eval_base.json"],
        ]
    eta, fixture = ["--config", ETA07], ["--tuned", FIXTURE]
    cmds += [
        ["sample", *eta, "--n", "2048", "--out", "o_eta07/sample_base.csv"],
        ["sample", *eta, "--n", "2048", *fixture, "--out", "o_eta07/sample_tuned.csv"],
        ["sweep", *eta, "--n", "2048", *fixture, "--out", "o_eta07/sweep.csv"],
        ["sweep", "--config", "gmm8.json", "--n", "2048", *fixture,
         "--out", "o_eta07/sweep_gmm8_fixture.csv"],
        ["sample", *eta, "--n", "0", "--out", "o_eta07/sample_empty.csv"],
    ]
    for c in ("gmm8", "gmm8_dpm2"):
        for v in VARIANTS:
            cmds.append(["tune", "--config", f"{c}_{v}.json", "--out", f"o_{c}_{v}/tuned.json"])
    cmds.append(["gap", "--config", "gmm8_logsnr.json", "--n", "1024",
                 "--out", "o_gmm8_logsnr/gap_base.csv"])
    return cmds


def outputs(work: Path) -> list:
    """The loop's output files in work, relative and sorted by path."""
    return sorted((p.relative_to(work) for p in work.glob("o_*/*")), key=str)


def run_loop(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for src in [*(ROOT / "configs").glob("*.json"), *(ROOT / "bench" / "inputs").glob("*.json")]:
        shutil.copy(src, work / src.name)
    write_variants(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in commands():
        subprocess.run([sys.executable, "-m", "steptuner.cli", *argv], cwd=work, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    for f in outputs(work):
        print(f"{hashlib.sha256((work / f).read_bytes()).hexdigest()}  {f}")


def diff(a: Path, b: Path) -> None:
    for f in outputs(a):
        x, y = (a / f).read_text(), (b / f).read_text()
        if x == y or NUMBER.sub("#", x) != NUMBER.sub("#", y):
            print(f, "byte-identical" if x == y else "differs outside its numbers")
            continue
        pairs = [(float(p), float(q)) for p, q in zip(NUMBER.findall(x), NUMBER.findall(y))]
        d = [abs(p - q) / max(abs(p), abs(q)) for p, q in pairs if p != q]
        print(f, f"max rel diff {max(d, default=0.0):.1e}, {len(d)} of {len(pairs)} numbers changed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="DIR, or A B with --diff")
    parser.add_argument("--diff", action="store_true", help="compare two loop directories")
    args = parser.parse_args(argv)
    if len(args.dirs) != (2 if args.diff else 1):
        parser.error("give one DIR, or two directories with --diff")
    if args.diff:
        diff(*args.dirs)
    else:
        run_loop(args.dirs[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
