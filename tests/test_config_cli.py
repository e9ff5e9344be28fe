"""Config parsing and the command line driver, run in process."""

import ctypes
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from steptuner import cli
from steptuner.analysis import draw_start_states, generate_paths
from steptuner.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from steptuner.errors import DomainError
from steptuner.oracle import GaussianMixtureOracle, make_oracle
from steptuner.rng import check_seed
from steptuner.samplers import SamplerConfig
from steptuner.schedule import NoiseSchedule
from steptuner.trajectory import baseline_tuned, make_trajectory
from steptuner.tuner import TunerConfig

CONFIG_FILES = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def _small_cfg(tmp_path, **overrides):
    doc = {
        "oracle": {"preset": "gmm8"},
        "trajectory": {"kind": "quadratic", "K": 3},
        "sampler": {"kind": "ddim-family", "eta": 0.0},
        "tuner": {"batch": 64, "coarse_grid": 5, "refine_tol": 1.0, "strategy": "sequential"},
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------------- config


def test_config_json_round_trip():
    assert [p.stem for p in CONFIG_FILES] == ["gmm8", "gmm8_dpm2", "standard"]
    for path in CONFIG_FILES:
        cfg = load_config(path)
        assert cfg.to_dict() == json.loads(path.read_text()), path.name
        again = config_from_dict(json.loads(cfg.to_json()))
        assert again == cfg, path.name
    default = ExperimentConfig()
    assert config_from_dict(default.to_dict()) == default


def test_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_errors_name_field_paths():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"tuner": {"batch": "many"}})
    assert "tuner.batch" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"nope": 1})
    assert "config.nope" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"trajectory": {"K": 0}})
    assert "trajectory.K" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"sampler": {"kind": "euler"}})
    assert "sampler.kind" in str(err.value)


def test_config_cross_field_check_for_two_evaluation_solver():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"sampler": {"kind": "dpm-solver-2"}})
    assert "trajectory.t_min" in str(err.value)
    cfg = config_from_dict(
        {"sampler": {"kind": "dpm-solver-2"}, "trajectory": {"t_min": 1.0}}
    )
    assert cfg.sampler.kind == "dpm-solver-2"


def test_preset_configs_build():
    for path in CONFIG_FILES:
        cfg = load_config(path)
        sched = cfg.schedule  # the parsed NoiseSchedule itself
        assert isinstance(sched, NoiseSchedule) and sched.build() is sched
        model = cfg.oracle.build(sched)
        traj = cfg.trajectory.build(sched)
        assert traj.K >= 1
        assert model.dim >= 1, path.name


# One row per (block, field, value): the library constructor and the config
# parser must agree on accept/reject, and a config rejection names the field.
_MIXTURE = {"means": [[0.0, 0.0], [1.0, 1.0]], "scales": [1.0, 0.5], "weights": [0.5, 0.5]}
# JSON readers accept Infinity and NaN literals; both sides must reject them
_NON_FINITE_ROWS = [
    ("schedule", "T", math.inf),
    ("schedule", "beta_min", math.inf),
    ("schedule", "beta_max", math.inf),
    ("oracle", "means", [[math.nan, 0.0], [1.0, 1.0]]),
    ("oracle", "means", [[0.0, 0.0], [1.0, -math.inf]]),
    ("oracle", "scales", [1.0, math.nan]),
    ("oracle", "scales", [math.inf, 0.5]),
    ("oracle", "weights", [0.5, math.nan]),
]
_PARITY_ROWS = [
    ("schedule", "beta_max", 1e-4),  # beta_min == beta_max
    ("schedule", "beta_max", 1e-5),
    ("schedule", "beta_min", 0.0),
    ("schedule", "beta_min", 0.01),
    ("schedule", "T", 0.0),
    ("schedule", "T", 10.0),
    ("schedule", "kind", "cosine"),
    ("oracle", "preset", "standard"),
    ("oracle", "preset", "moons"),
    ("oracle", "dim", 0),
    ("oracle", "dim", 3),
    ("oracle", "means", [[0.0, 0.0], [2.0, 0.0]]),
    ("oracle", "means", [["a", "b"], [1.0, 1.0]]),
    ("oracle", "means", [[0.0], [1.0, 1.0]]),
    ("oracle", "means", [[], []]),
    ("oracle", "scales", [1.0, 0.0]),
    ("oracle", "scales", [1.0]),
    ("oracle", "scales", [1.0, "x"]),
    ("oracle", "weights", [0.25, 0.75]),
    ("oracle", "weights", [0.3, 0.3]),
    ("oracle", "weights", ["x", "y"]),
    ("oracle", "weights", [0.5, None]),
    ("trajectory", "kind", "log-snr"),
    ("trajectory", "kind", "cosine"),
    ("trajectory", "K", 0),
    ("trajectory", "K", 1),
    ("trajectory", "t_min", -1.0),
    ("trajectory", "t_min", 5.0),
    ("trajectory", "t_min", 1000.0),
    ("sampler", "kind", "euler"),
    ("sampler", "eta", 1.0),
    ("sampler", "eta", 1.5),
    ("tuner", "strategy", "parallel"),
    ("tuner", "strategy", "greedy"),
    ("tuner", "bounds", "wide"),
    ("tuner", "bounds", "narrow"),
    ("tuner", "batch", 0),
    ("tuner", "batch", 1),
    ("tuner", "coarse_grid", 2),
    ("tuner", "coarse_grid", 3),
    ("tuner", "refine_tol", 0.0),
    ("tuner", "seed", -1),
    ("tuner", "seed", 5),
    ("tuner", "seed", 2**32),
    ("seeds", "sample", -1),
    ("seeds", "data", -1),
    ("seeds", "eval", -2),
    ("seeds", "eval", 3),
    ("seeds", "sample", 2**32),
    ("seeds", "data", 2**32 - 1),
] + _NON_FINITE_ROWS + [
    # integer fields: a float, even an integral one, and a bool are not integers
    row
    for block, name, as_float in [
        ("oracle", "dim", 2.5),
        ("trajectory", "K", 10.0),
        ("tuner", "batch", 64.5),
        ("tuner", "coarse_grid", 5.0),
        ("tuner", "seed", 1.5),
        ("seeds", "sample", 1.5),
        ("seeds", "data", 2.0),
        ("seeds", "eval", 3.5),
    ]
    for row in ((block, name, as_float), (block, name, True))
]


def _library_accepts(block: str, name: str, value) -> bool:
    schedule = NoiseSchedule()
    build = {
        "schedule": lambda: NoiseSchedule(**{name: value}),
        "oracle": lambda: (
            GaussianMixtureOracle(schedule=schedule, **dict(_MIXTURE, **{name: value}))
            if name in _MIXTURE
            else make_oracle(**dict({"preset": "gmm8"}, **{name: value}), schedule=schedule)
        ),
        "trajectory": lambda: make_trajectory(
            **dict({"kind": "quadratic", "K": 10}, **{name: value}), schedule=schedule
        ),
        "sampler": lambda: SamplerConfig(**{name: value}),
        "tuner": lambda: TunerConfig(**{name: value}),
        "seeds": lambda: check_seed(value, name),
    }[block]
    try:
        build()
    except DomainError:
        return False
    return True


def test_config_and_library_accept_the_same_values():
    mismatches = []
    for block, name, value in _PARITY_ROWS:
        section = dict(_MIXTURE) if block == "oracle" and name in _MIXTURE else {}
        section[name] = value
        try:
            config_from_dict({block: section})
            config_accepts, message = True, ""
        except ConfigError as exc:
            config_accepts, message = False, str(exc)
        library_accepts = _library_accepts(block, name, value)
        if config_accepts != library_accepts or not (
            config_accepts or message.startswith(f"{block}.{name}:")
        ):
            mismatches.append((block, name, value, library_accepts, message))
    assert mismatches == []


@pytest.mark.parametrize("value", [1.5, 5.0, True])
def test_library_integer_fields_reject_floats_and_bools(value):
    # a float seed would be truncated by the RNG key and a float batch would
    # fail deep inside a run; each is refused up front, naming its field
    schedule = NoiseSchedule()
    builds = {
        "seed": [lambda: TunerConfig(seed=value), lambda: SamplerConfig(seed=value),
                 lambda: check_seed(value)],
        "batch": [lambda: TunerConfig(batch=value)],
        "coarse_grid": [lambda: TunerConfig(coarse_grid=value)],
        "K": [lambda: make_trajectory("quadratic", value, schedule)],
        "dim": [lambda: make_oracle("standard", schedule, dim=value)],
    }
    for name, makes in builds.items():
        for make in makes:
            with pytest.raises(DomainError, match=f"^{name}: must be an integer"):
                make()


def test_library_integer_fields_take_numpy_integers():
    schedule = NoiseSchedule()
    TunerConfig(seed=np.uint32(7), batch=np.int64(64), coarse_grid=np.int32(5))
    SamplerConfig(seed=np.int64(3))
    check_seed(np.uint64(2**32 - 1))
    assert make_trajectory("quadratic", np.int16(4), schedule).K == 4
    assert make_oracle("standard", schedule, dim=np.int64(3)).dim == 3


@pytest.mark.parametrize("block,name,value", _NON_FINITE_ROWS)
def test_cli_non_finite_values_exit_2_with_field_path(tmp_path, capsys, block, name, value):
    assert not _library_accepts(block, name, value)
    section = dict(_MIXTURE) if block == "oracle" else {}
    section[name] = value
    cfg = _small_cfg(tmp_path, **{block: section})
    assert "Infinity" in Path(cfg).read_text() or "NaN" in Path(cfg).read_text()
    assert cli.main(["sample", "--config", cfg, "--n", "4"]) == 2
    assert f"error: {block}.{name}: must be" in capsys.readouterr().err


# ------------------------------------------------------------------------ cli


def test_cli_tune_outputs(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert set(doc) >= {"sampler_kind", "trajectory", "pairs", "bounds"}
    assert len(doc["pairs"]) == 3
    csv_path = out.with_suffix(".csv")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "i,t_i,tau_i,loss_baseline,loss_tuned,stderr,boundary_flag"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "tuned.json.meta.json").read_text())
    assert meta["command"] == "tune"
    assert meta["tool"] == "steptuner"
    assert not any("time" in k or "date" in k for k in meta)
    # per-site search telemetry, in the sidecar only
    assert [site["step"] for site in meta["tune"]] == [1, 2, 3]
    for site in meta["tune"]:
        assert set(site) == {"step", "t_site", "fell_back", "n_evals"}
        assert isinstance(site["fell_back"], bool) and site["n_evals"] > 0
    capsys.readouterr()


def test_cli_out_collision_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    # tune's second output takes --out with a .csv suffix, so --out X.csv
    # would write both to one path; that is found before the tune runs
    def no_tune(*args):
        raise AssertionError("tune ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_tune", no_tune)
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "res" / "tuned.csv"
    assert cli.main(["tune", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"would be written to {out}" in err and "Traceback" not in err, err
    assert not (tmp_path / "res").exists()
    monkeypatch.undo()
    out = tmp_path / "res" / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} and {out.with_suffix('.csv')}\n"
    assert sorted(p.name for p in out.parent.iterdir()) == [
        "tuned.csv", "tuned.json", "tuned.json.meta.json"
    ]


def test_cli_tune_missing_field_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"tuner": {"batch": -3}}))
    code = cli.main(["tune", "--config", str(path), "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "tuner.batch" in capsys.readouterr().err


def test_cli_sample_deterministic_and_worker_free(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    outs = {}
    for tag, workers in [("a", "1"), ("b", "1"), ("c", "8")]:
        out = tmp_path / f"s_{tag}.csv"
        code = cli.main(
            ["sample", "--config", cfg, "--out", str(out), "--n", "700", "--workers", workers]
        )
        assert code == 0
        outs[tag] = out.read_bytes()
    assert outs["a"] == outs["b"] == outs["c"]
    assert len(outs["a"].strip().split(b"\n")) == 700
    capsys.readouterr()


def test_cli_sample_empty_request(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "empty.csv"
    assert cli.main(["sample", "--config", cfg, "--out", str(out), "--n", "0"]) == 0
    assert out.read_text() == ""
    capsys.readouterr()


@pytest.mark.parametrize("dim, n", [(1, 300), (3, 300), (1, 0), (3, 0)])
def test_cli_sample_rows_are_reprs_of_the_final_states(tmp_path, capsys, dim, n):
    cfg = _small_cfg(tmp_path, oracle={"preset": "standard", "dim": dim})
    out = tmp_path / "s.csv"
    assert cli.main(["sample", "--config", cfg, "--out", str(out), "--n", str(n)]) == 0
    config = load_config(cfg)
    schedule, model, traj, sampler = config.build()
    tuned = baseline_tuned(traj, schedule, sampler.kind)
    x_T = draw_start_states(model, n, config.seeds.sample)
    final = generate_paths(x_T, tuned, sampler, model).states[-1]
    assert final.shape == (n, dim)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in final.tolist())
    assert out.read_text() == expected
    capsys.readouterr()


def test_cli_sample_one_row_is_row_zero_of_two(tmp_path, capsys):
    # the one-row rollout goes through the same oracle kernel as a batch
    cfg = str(Path(__file__).parent.parent / "configs" / "gmm8.json")
    rows = {}
    for n in ("1", "2"):
        out = tmp_path / f"s{n}.csv"
        assert cli.main(["sample", "--config", cfg, "--out", str(out), "--n", n]) == 0
        rows[n] = out.read_text().splitlines()
    assert len(rows["1"]) == 1 and len(rows["2"]) == 2
    assert rows["1"][0] == rows["2"][0]
    capsys.readouterr()


def test_cli_sample_seed_override_changes_output(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    a = tmp_path / "sa.csv"
    b = tmp_path / "sb.csv"
    assert cli.main(["sample", "--config", cfg, "--out", str(a), "--n", "64"]) == 0
    assert cli.main(["sample", "--config", cfg, "--out", str(b), "--n", "64", "--seed", "77"]) == 0
    assert a.read_bytes() != b.read_bytes()
    capsys.readouterr()


def test_cli_tuned_sampling_differs_from_baseline(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    tuned = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(tuned)]) == 0
    base_out = tmp_path / "base.csv"
    tuned_out = tmp_path / "tuned_samples.csv"
    assert cli.main(["sample", "--config", cfg, "--out", str(base_out), "--n", "64"]) == 0
    assert (
        cli.main(
            ["sample", "--config", cfg, "--tuned", str(tuned), "--out", str(tuned_out), "--n", "64"]
        )
        == 0
    )
    assert base_out.read_bytes() != tuned_out.read_bytes()
    capsys.readouterr()


def test_cli_gap_report(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "gap.csv"
    assert cli.main(["gap", "--config", cfg, "--out", str(out), "--n", "32"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step_index,t,mean_gap,stderr,n_paths"
    assert len(lines) == 5
    capsys.readouterr()


def test_cli_csv_fields_are_plain_numbers(tmp_path, capsys):
    # every field of the headed tables is a repr of a Python int or float:
    # under numpy 2 the repr of a numpy scalar reads "np.float64(...)"
    cfg = _small_cfg(tmp_path)
    tuned = tmp_path / "tuned.json"
    gap, sweep = tmp_path / "gap.csv", tmp_path / "sweep.csv"
    for argv in (
        ["tune", "--config", cfg, "--out", str(tuned)],
        ["gap", "--config", cfg, "--tuned", str(tuned), "--n", "16", "--out", str(gap)],
        ["sweep", "--config", cfg, "--tuned", str(tuned), "--n", "16", "--out", str(sweep)],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    for path, width in ((tuned.with_suffix(".csv"), 7), (gap, 5), (sweep, 3)):
        header, *rows = path.read_text().splitlines()
        assert len(header.split(",")) == width and rows, path.name
        for row in rows:
            fields = row.split(",")
            assert len(fields) == width and "np." not in row, row
            for f in fields:
                assert repr(int(f) if f.lstrip("-").isdigit() else float(f)) == f, row


def test_cli_sweep_requires_tuned_and_writes_rows(tmp_path, capsys):
    # seeds.data is not seeds.sample + 1, so the sweep must read all three
    cfg = _small_cfg(tmp_path, seeds={"sample": 3, "data": 7, "eval": 11})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--n", "128"]) == 2
    tuned = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(tuned)]) == 0
    code = cli.main(
        ["sweep", "--config", cfg, "--tuned", str(tuned), "--out", str(out), "--n", "128"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,fd,swd"
    assert len(lines) == 5  # K + 1 rows
    # its end rows are eval's baseline and fully tuned reports, same seeds
    for row, extra in ((lines[1], []), (lines[-1], ["--tuned", str(tuned)])):
        ev = tmp_path / "eval.json"
        argv = ["eval", "--config", cfg, "--out", str(ev), "--n", "128"]
        assert cli.main(argv + extra) == 0
        doc = json.loads(ev.read_text())
        assert row.split(",")[1:] == [repr(doc["frechet"]), repr(doc["sliced_wasserstein"])]
    capsys.readouterr()


def test_cli_tuned_mismatch_is_contract_error(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    tuned = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(tuned)]) == 0
    other = _small_cfg(tmp_path, trajectory={"kind": "quadratic", "K": 4})
    code = cli.main(["sample", "--config", other, "--tuned", str(tuned), "--n", "8"])
    assert code == 3
    assert "trajectory" in capsys.readouterr().err


def test_cli_eval_report(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--config", cfg, "--out", str(out), "--n", "256"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"frechet", "sliced_wasserstein", "tuned", "n_a", "n_b"}
    assert doc["tuned"] is False
    assert doc["n_a"] == 256
    assert cli.main(["eval", "--config", cfg, "--out", str(out), "--n", "2"]) == 2
    capsys.readouterr()


def test_cli_rerun_byte_identical(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    a = tmp_path / "e1.json"
    b = tmp_path / "e2.json"
    assert cli.main(["eval", "--config", cfg, "--out", str(a), "--n", "128"]) == 0
    assert cli.main(["eval", "--config", cfg, "--out", str(b), "--n", "128"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_cli_allocator_setting_leaves_outputs_alone(tmp_path, capsys, monkeypatch):
    # main sets glibc's malloc thresholds through ctypes; without libc.so.6,
    # or with a libc that has no mallopt, it goes on unchanged, and so do
    # two runs in one process
    cfg = _small_cfg(tmp_path)
    opened, calls = [], []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def no_libc(name):
        opened.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    def libc_without_mallopt(name):
        opened.append(name)
        return object()

    def recording_libc(name):
        opened.append(name)
        return SimpleNamespace(mallopt=mallopt)

    def tune(run, cdll=None):
        if cdll is not None:
            monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["tune", "--config", cfg, "--out", "tuned.json"]) == 0
        monkeypatch.undo()
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    first = tune("first")
    assert sorted(first) == ["tuned.csv", "tuned.json", "tuned.json.meta.json"]
    assert tune("second") == first
    assert tune("no_libc", no_libc) == first
    assert tune("no_mallopt", libc_without_mallopt) == first
    assert opened == ["libc.so.6", "libc.so.6"]
    assert tune("recorded", recording_libc) == first
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    capsys.readouterr()


def test_cli_missing_tuned_file(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    code = cli.main(["sample", "--config", cfg, "--tuned", str(tmp_path / "nope.json"), "--n", "4"])
    assert code == 2
    capsys.readouterr()


def test_cli_malformed_tuned_file_exits_2(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    bad = tmp_path / "bad_tuned.json"
    bad.write_text("{not json")
    assert cli.main(["sample", "--config", cfg, "--tuned", str(bad), "--n", "4"]) == 2
    assert "bad_tuned.json" in capsys.readouterr().err
    good = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    for key in ["pairs", "trajectory", "sampler_kind"]:
        partial = {k: v for k, v in doc.items() if k != key}
        bad.write_text(json.dumps(partial))
        assert cli.main(["sample", "--config", cfg, "--tuned", str(bad), "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert "bad_tuned.json" in err and key in err, err
    wrong_values = [
        dict(doc, pairs=5),
        dict(doc, pairs=[dict(doc["pairs"][0], tau="x")] + doc["pairs"][1:]),
        dict(doc, trajectory=dict(doc["trajectory"], K="abc")),
        dict(doc, bounds=[[1.0]] + doc["bounds"][1:]),
        [doc],
        # parsed, but against a library rule: exit 2 naming the file, not 3
        dict(doc, sampler_kind="euler"),
        dict(doc, trajectory=dict(doc["trajectory"], points=doc["trajectory"]["points"][::-1])),
        dict(doc, pairs=[dict(doc["pairs"][0], tau=doc["bounds"][0][1] + 1.0)] + doc["pairs"][1:]),
    ] + [
        # without bounds a tau is checked against no interval, only its own
        # rule and the sampler's (0, T]
        dict(doc, bounds=[], pairs=[dict(doc["pairs"][0], tau=tau)] + doc["pairs"][1:])
        for tau in (0.0, -5.0, float("nan"), float("inf"), 1500.0)
    ]
    for malformed in wrong_values:
        bad.write_text(json.dumps(malformed))
        assert cli.main(["sample", "--config", cfg, "--tuned", str(bad), "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert "bad_tuned.json" in err and "Traceback" not in err, err


def test_cli_tune_takes_no_tuned_or_n(tmp_path, capsys):
    # tune neither reads a tuned file nor draws --n paths, so it refuses both
    # flags, and its sidecar echoes only the overrides it takes
    cfg = _small_cfg(tmp_path)
    for extra in (["--n", "5"], ["--tuned", str(tmp_path / "missing.json")]):
        assert cli.main(["tune", "--config", cfg] + extra) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    out = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    meta = json.loads((tmp_path / "tuned.json.meta.json").read_text())
    assert meta["overrides"] == {"seed": None, "workers": 2}
    sample = tmp_path / "s.csv"
    assert cli.main(["sample", "--config", cfg, "--n", "4", "--out", str(sample)]) == 0
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["overrides"] == {"seed": None, "n": 4, "workers": 1, "tuned": None}
    capsys.readouterr()


def test_cli_usage_errors_return_their_exit_code(capsys):
    # argparse's exit is returned as main's code, not raised
    assert cli.main(["tune", "--seed", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli.main([]) == 2
    capsys.readouterr()
    for argv in (["--help"], ["gap", "--help"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: steptuner")


def test_cli_unreadable_config_or_tuned_file_exits_2(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    folder = tmp_path / "folder.json"
    folder.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"out_dir": "caf\xe9"}')
    for flag in ("--config", "--tuned"):
        for bad in (folder, latin1):
            argv = ["sample", "--n", "4", flag, str(bad)]
            if flag == "--tuned":
                argv += ["--config", cfg]
            assert cli.main(argv) == 2, (flag, bad.name)
            err = capsys.readouterr().err
            assert bad.name in err and "Traceback" not in err, err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    # the command runs, then its write fails: a directory in the way of the
    # output, or a regular file in the way of its directory
    cfg = _small_cfg(tmp_path)
    folder = tmp_path / "folder.csv"
    folder.mkdir()
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (folder, blocker / "s.csv"):
        assert cli.main(["sample", "--config", cfg, "--n", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err and "Traceback" not in err, err


def test_cli_rejects_bad_flag_values(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    assert cli.main(["sample", "--config", cfg, "--n", "-1"]) == 2
    assert cli.main(["sample", "--config", cfg, "--workers", "0"]) == 2
    for seed in ("-5", str(2**32 - 2)):  # the data and eval seeds are seed + 1, + 2
        assert cli.main(["sample", "--config", cfg, "--seed", seed]) == 2
        assert "--seed" in capsys.readouterr().err
    assert cli.main(["gap", "--config", cfg, "--n", "0"]) == 2
    assert "--n" in capsys.readouterr().err
    tuned = tmp_path / "tuned.json"
    assert cli.main(["tune", "--config", cfg, "--out", str(tuned)]) == 0
    capsys.readouterr()
    for n in ("0", "1", "2"):  # dim + 1 = 3 points for the sample covariance
        assert cli.main(["sweep", "--config", cfg, "--tuned", str(tuned), "--n", n]) == 2
        assert "--n" in capsys.readouterr().err


def test_cli_config_value_errors_exit_2_with_field_path(tmp_path, capsys):
    for overrides, where in [
        ({"seeds": {"sample": -1}}, "seeds.sample"),
        ({"oracle": {"means": [["a", "b"]], "scales": [1.0], "weights": [1.0]}}, "oracle.means"),
        (
            {"oracle": {"means": [[0.0, 0.0], [1.0, 1.0]], "scales": [1.0, 1.0],
                        "weights": [0.5, 0.6]}},
            "oracle.weights",
        ),
        ({"oracle": {"preset": "standard", "dim": 0}}, "oracle.dim"),
    ]:
        cfg = _small_cfg(tmp_path, **overrides)
        assert cli.main(["sample", "--config", cfg, "--n", "4"]) == 2
        assert where in capsys.readouterr().err
