"""Run configuration: typed blocks and their JSON round-trip.

A run is described by one JSON document with blocks for the noise
schedule, the data oracle, the checkpoint trajectory, the sampler, the
tuner, seeds, and an output directory. Parsing is generic over the
dataclass fields below: it rejects unknown keys and wrong JSON types,
then builds the library objects, so every value rule is the library's
own. Errors name the offending field by dotted path (for example
"tuner.batch").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError, DomainError
from .oracle import GaussianMixtureOracle, make_oracle
from .rng import check_seed
from .samplers import SamplerConfig
from .schedule import NoiseSchedule
from .trajectory import Trajectory, make_trajectory
from .tuner import TunerConfig


@dataclass(frozen=True)
class OracleBlock:
    preset: str = "gmm8"
    dim: int = 2  # used by the "standard" preset
    means: list = field(default_factory=list)  # explicit mixture overrides preset
    scales: list = field(default_factory=list)
    weights: list = field(default_factory=list)

    def build(self, schedule: NoiseSchedule) -> GaussianMixtureOracle:
        if self.means:
            return GaussianMixtureOracle(
                schedule=schedule, means=self.means, scales=self.scales, weights=self.weights
            )
        return make_oracle(self.preset, schedule, dim=self.dim)


@dataclass(frozen=True)
class TrajectoryBlock:
    kind: str = "quadratic"
    K: int = 10
    t_min: float = 0.0

    def build(self, schedule: NoiseSchedule) -> Trajectory:
        return make_trajectory(self.kind, self.K, schedule, t_min=self.t_min)


@dataclass(frozen=True)
class SamplerBlock:
    kind: str = "ddim-family"
    eta: float = 0.0


@dataclass(frozen=True)
class Seeds:
    sample: int = 0
    data: int = 1
    eval: int = 2

    def __post_init__(self) -> None:
        for f in fields(self):
            check_seed(getattr(self, f.name), f.name)


@dataclass(frozen=True)
class ExperimentConfig:
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    oracle: OracleBlock = field(default_factory=OracleBlock)
    trajectory: TrajectoryBlock = field(default_factory=TrajectoryBlock)
    sampler: SamplerBlock = field(default_factory=SamplerBlock)
    tuner: TunerConfig = field(default_factory=TunerConfig)
    seeds: Seeds = field(default_factory=Seeds)
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def build(self) -> tuple:
        """The run's (schedule, model, trajectory, sampler).

        A library DomainError is re-raised as a ConfigError at the dotted
        path of the block that raised it.
        """
        schedule = self.schedule  # parsed as the library object, so already checked
        model = _build("oracle", self.oracle.build, schedule)
        traj = _build("trajectory", self.trajectory.build, schedule)
        sampler = _build(
            "sampler", SamplerConfig,
            kind=self.sampler.kind, eta=self.sampler.eta, seed=self.seeds.sample,
        )
        if sampler.kind == "dpm-solver-2" and self.trajectory.t_min < schedule.t_eps:
            raise ConfigError(
                "trajectory.t_min: the two-evaluation sampler needs "
                f"t_min >= t_eps ({schedule.t_eps!r} for this schedule)"
            )
        return schedule, model, traj, sampler


# JSON types accepted for each annotated field type; bool is not a number
_JSON_TYPES = {float: (int, float), int: int, str: str, list: list}


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a library DomainError ("field: ...")
    re-raised as a ConfigError at the dotted path "path.field: ..."."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _parse(cls, doc, path: str):
    """Instance of dataclass cls from a JSON object, omitted keys defaulted."""
    where = path or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")
    kwargs = {}
    for name, value in doc.items():
        kind = hints[name]
        field_path = f"{path}.{name}" if path else name
        if is_dataclass(kind):
            kwargs[name] = _parse(kind, value, field_path)
            continue
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ConfigError(f"{field_path}: expected {kind.__name__}, got {value!r}")
        kwargs[name] = float(value) if kind is float else value
    return _build(where, cls, **kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = _parse(ExperimentConfig, doc, "")
    cfg.build()
    return cfg


def read_json(path, what: str):
    """The JSON document in the file at path. A file that is missing,
    unreadable, not UTF-8 or not JSON raises a ConfigError naming it."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {p}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} file {p} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {p} is not valid JSON: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"))
