"""Command-line entry points: tune, sample, gap, sweep, eval.

Every subcommand reads one JSON config, writes plain CSV or JSON outputs
plus a ``<name>.meta.json`` sidecar echoing the exact settings used, and
is byte-for-byte reproducible given (config, seeds). Exit codes: 0 on
success, 2 for config problems, 3 for domain or contract violations, 4
for numeric failures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DENSE_K,
    DENSE_ORDER,
    _merged_points,
    csv_table,
    draw_start_states,
    evaluate_samples,
    gap_profile,
    generate_paths,
    reference_path,
    step_replacement_sweep,
)
from .config import ExperimentConfig, Seeds, load_config, read_json
from .errors import ConfigError, ContractError, StepTunerError
from .samplers import _check_taus
from .trajectory import POINT_TOL, baseline_tuned, tuned_from_json, tuned_to_json
from .tuner import tune as run_tune


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steptuner",
        description="Tune and evaluate conditioning times for few-step samplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {
        "tune": "search per-step conditioning times and write them to JSON + CSV",
        "sample": "draw final samples with the baseline or a tuned sampler",
        "gap": "pathwise gap to a dense reference at every checkpoint",
        "sweep": "metrics as tuned times replace baseline ones step by step",
        "eval": "distribution metrics of generated samples against fresh data",
    }
    # the commands that roll paths, with their default sample counts
    defaults_n = {"sample": 1024, "gap": 1024, "sweep": 2048, "eval": 2048}
    for name, help_text in subcommands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="primary output path")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
        p.add_argument(
            "--workers", type=int, default=1, help="accepted for compatibility; no effect"
        )
        if name in defaults_n:
            p.add_argument("--tuned", type=str, default=None, help="tuned-times JSON path")
            p.add_argument("--n", type=int, default=defaults_n[name], help="sample count")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        s = args.seed
        if not (0 <= s < 2**32 - 2):
            raise ConfigError("--seed must be an integer in [0, 2**32 - 2)")
        cfg = replace(
            cfg,
            seeds=Seeds(sample=s, data=s + 1, eval=s + 2),
            tuner=replace(cfg.tuner, seed=s),
        )
    if args.workers < 1:
        raise ConfigError("--workers must be a positive integer")
    if getattr(args, "n", 0) < 0:
        raise ConfigError("--n must be non-negative")
    return cfg


def _require_n(args, least: int) -> None:
    if args.n < least:
        raise ConfigError(f"--n must be at least {least} for {args.command}")


def _load_tuned(args, traj, schedule, sampler):
    if args.tuned is None:
        return baseline_tuned(traj, schedule, sampler.kind), False
    path = args.tuned
    try:
        tuned = tuned_from_json(read_json(path, "tuned"))
        _check_taus(schedule.T, *tuned.taus)
    except KeyError as exc:
        raise ConfigError(f"tuned file {path} lacks key {exc}") from exc
    except (TypeError, ValueError, StepTunerError) as exc:
        # the document parsed but breaks a rule of the library's own
        raise ConfigError(f"tuned file {path} is malformed: {exc}") from exc
    if tuned.sampler_kind != sampler.kind:
        raise ContractError(
            f"tuned file targets sampler {tuned.sampler_kind!r}, "
            f"config uses {sampler.kind!r}"
        )
    if tuned.base.K != traj.K or not np.allclose(
        tuned.base.points, traj.points, rtol=0, atol=POINT_TOL * schedule.T
    ):
        raise ContractError("tuned file trajectory does not match the config")
    return tuned, True


def cmd_tune(args, cfg, schedule, model, traj, sampler) -> tuple:
    tuned, records = run_tune(cfg.tuner, traj, sampler, model)
    csv = csv_table(
        "i,t_i,tau_i,loss_baseline,loss_tuned,stderr,boundary_flag",
        [(r.step, r.t_site, r.tau, r.loss_baseline, r.loss_tuned, r.stderr, int(r.boundary))
         for r in records],
    )
    # the search's telemetry goes to the sidecar, so the CSV stays as it was
    sites = [
        {"step": r.step, "t_site": r.t_site, "fell_back": r.fell_back, "n_evals": r.n_evals}
        for r in records
    ]
    return [tuned_to_json(tuned, schedule), csv], {"tune": sites}


def cmd_sample(args, cfg, schedule, model, traj, sampler) -> tuple:
    tuned, _ = _load_tuned(args, traj, schedule, sampler)
    x_T = draw_start_states(model, args.n, cfg.seeds.sample)
    final = generate_paths(x_T, tuned, sampler, model).states[-1]
    # one format call over all values; "{!r}" is repr, so each row reads
    # as ",".join(map(repr, row))
    row = ",".join(["{!r}"] * final.shape[1]) + "\n"
    return [(row * len(final)).format(*final.ravel().tolist())], {}


def cmd_gap(args, cfg, schedule, model, traj, sampler) -> tuple:
    tuned, _ = _load_tuned(args, traj, schedule, sampler)
    _require_n(args, 1)
    x_T = draw_start_states(model, args.n, cfg.seeds.sample)
    coarse = generate_paths(x_T, tuned, sampler, model)
    t_min, checkpoints = float(traj.points[0]), coarse.trajectory_points
    reference = reference_path(x_T, model, DENSE_K, t_min=t_min, checkpoints=checkpoints)
    # which reference the gaps are measured against, for the sidecar
    points, _ = _merged_points(schedule.T, t_min, DENSE_K, checkpoints)
    ref = {"dense_K": DENSE_K, "order": DENSE_ORDER, "steps": len(points) - 1}
    return [gap_profile(coarse, reference).to_csv()], {"reference": ref}


def cmd_sweep(args, cfg, schedule, model, traj, sampler) -> tuple:
    if args.tuned is None:
        raise ConfigError("sweep requires --tuned")
    tuned, _ = _load_tuned(args, traj, schedule, sampler)
    _require_n(args, model.dim + 1)
    seeds = cfg.seeds
    reports = step_replacement_sweep(
        traj, tuned, sampler, model, args.n, seeds.sample, seeds.data, seeds.eval
    )
    rows = [(m, r.frechet, r.sliced_wasserstein) for m, r in enumerate(reports)]
    return [csv_table("m,fd,swd", rows)], {}


def cmd_eval(args, cfg, schedule, model, traj, sampler) -> tuple:
    tuned, is_tuned = _load_tuned(args, traj, schedule, sampler)
    _require_n(args, model.dim + 1)
    x_T = draw_start_states(model, args.n, cfg.seeds.sample)
    path = generate_paths(x_T, tuned, sampler, model)
    data = model.sample_data(args.n, cfg.seeds.data)
    report = evaluate_samples(path.states[-1], data, seed=cfg.seeds.eval)
    doc = dict(report.to_dict(), tuned=is_tuned)
    return [json.dumps(doc, indent=2, sort_keys=True) + "\n"], {}


def _write(path: Path, text: str) -> None:
    """Write text to path, making its directory; a failure exits 2 naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run(args) -> int:
    """Load the config, place the outputs, build and run the command, write.

    A command returns the texts of its outputs, in the order of its names
    in ``_COMMANDS``, and a dict of what the run did, for the sidecar. The
    first output goes to --out, or under its default name to the config's
    out_dir; each further one goes next to it with its own suffix, and a
    path that two outputs would share exits 2 before the command runs. The
    ``.meta.json`` sidecar, which echoes the settings used, sits by the
    first.
    """
    cfg = _load(args)
    command, names = _COMMANDS[args.command]
    first = Path(args.out) if args.out is not None else Path(cfg.out_dir) / names[0]
    paths = [first] + [first.with_suffix(Path(name).suffix) for name in names[1:]]
    for j, path in enumerate(paths):
        if path in paths[:j]:
            raise ConfigError(
                f"--out {first}: two outputs of {args.command} would be written to "
                f"{path}; give --out another suffix"
            )
    texts, report = command(args, cfg, *cfg.build())
    for path, text in zip(paths, texts):
        _write(path, text)
    meta = {
        "tool": "steptuner",
        "version": __version__,
        "command": args.command,
        "config": cfg.to_dict(),
        # the flags other than the config and the output paths
        "overrides": {
            k: v for k, v in vars(args).items() if k not in ("command", "config", "out")
        },
        "outputs": [str(p) for p in paths],
        **report,
    }
    sidecar = first.with_name(first.name + ".meta.json")
    _write(sidecar, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print("wrote " + " and ".join(map(str, paths)))
    return 0


# each command with the default names of its outputs, first to last
_COMMANDS = {
    "tune": (cmd_tune, ("tuned.json", "tuned.csv")),
    "sample": (cmd_sample, ("samples.csv",)),
    "gap": (cmd_gap, ("gap.csv",)),
    "sweep": (cmd_sweep, ("sweep.csv",)),
    "eval": (cmd_eval, ("eval.json",)),
}


def _keep_freed_heap() -> None:
    """Keep freed arrays below 32 MiB in the heap for reuse; glibc only.

    By default glibc hands a freed block above its (dynamic) mmap threshold
    back to the kernel and trims the heap top past its trim threshold, so
    every stacked scoring pass of the tuner faults the same pages of
    temporaries in again. Fixed thresholds keep them. Elsewhere (no
    libc.so.6, or no mallopt in it) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, from glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    try:
        return _run(args)
    except StepTunerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
