"""Experiment configuration: one JSON file drives every phase.

Top-level scalar fields can be overridden by environment variables of
the form ``CNL_<FIELD>`` (e.g. ``CNL_MASTER_SEED=7``,
``CNL_OUT_DIR=/tmp/run``); command-line flags override both.
"""

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .nn import LayerSpec, TrainConfig

ENV_PREFIX = "CNL_"

# scalar fields that may come from the environment, with their parsers
_ENV_FIELDS = {
    "MASTER_SEED": ("master_seed", int),
    "OUT_DIR": ("out_dir", str),
    "K": ("k", int),
    "DECISION_DEPTH": ("decision_depth", int),
    "MANIFEST": ("manifest", str),
}


@dataclass
class DatasetConfig:
    type: str = "synthetic"
    classes_per_family: int = 11
    per_class: int = 300
    image_side: int = 20
    seed: int = 3
    num_known: int = 5
    num_objective_unknown: int = 3
    num_nonobjective_unknown: int = 3
    groups: list = field(default_factory=list)   # idx ingestion only


@dataclass
class PhaseBudgets:
    base: TrainConfig
    pair: TrainConfig
    predictor: TrainConfig


@dataclass
class ExperimentConfig:
    manifest: str
    dataset: DatasetConfig
    input_shape: tuple
    layers: tuple                 # LayerSpec sequence of the base network
    taps: tuple
    k: int
    train_fraction: float
    decision_depth: int
    threshold_reference_tap: int
    threshold_final_tap: int
    threshold_overrides: dict | None
    train: PhaseBudgets
    growth: dict
    heldout_classes: tuple        # empty = pick one per subset automatically
    master_seed: int
    out_dir: str
    base_dir: Path = Path(".")

    def path(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def manifest_path(self) -> Path:
        return self.path(self.manifest)

    @property
    def out_path(self) -> Path:
        return self.path(self.out_dir)

    def validate(self):
        for f in fields(DatasetConfig):
            if f.type is int:
                _integer(getattr(self.dataset, f.name), f"dataset.{f.name}")
        if not self.taps:
            raise ConfigError("at least one tap index is required")
        if len(set(self.taps)) != len(self.taps):
            raise ConfigError(f"duplicate tap indices {self.taps}")
        # a 1-vs-1 job at a tap retrains the layers above it, the final
        # Dense layer (the 2-way head) among them
        head = max((i for i, spec in enumerate(self.layers)
                    if spec.kind == "Dense"), default=0)
        for tap in self.taps:
            if not 0 <= _integer(tap, "tap") < head:
                raise ConfigError(
                    f"tap {tap} outside 0..{head - 1}: the 2-way head (layer "
                    f"{head}) needs a trainable layer above the tap")
        depth_count = len(self.taps)
        if not 1 <= self.decision_depth < depth_count:
            raise ConfigError(
                f"decision_depth {self.decision_depth} outside 1.."
                f"{depth_count - 1}")
        for name in ("threshold_reference_tap", "threshold_final_tap"):
            if getattr(self, name) not in self.taps:
                raise ConfigError(f"{name} must be one of the taps {self.taps}")
        if self.dataset.type not in ("synthetic", "idx"):
            raise ConfigError(f"unknown dataset type {self.dataset.type!r}")
        return self


DEFAULT_LAYERS = (
    {"kind": "Conv2D", "filters": 8, "kernel": [3, 3], "stride": 1, "frozen": False},
    {"kind": "ReLU"},
    {"kind": "MaxPool2D", "kernel": [2, 2], "stride": 2},
    {"kind": "Conv2D", "filters": 16, "kernel": [3, 3], "stride": 1, "frozen": False},
    {"kind": "ReLU"},
    {"kind": "MaxPool2D", "kernel": [2, 2], "stride": 2},
    {"kind": "Conv2D", "filters": 32, "kernel": [3, 3], "stride": 1, "frozen": False},
    {"kind": "ReLU"},
    {"kind": "Flatten"},
    {"kind": "Dense", "units": 32, "frozen": False},
    {"kind": "ReLU"},
    {"kind": "Dense", "units": 5, "frozen": False},
    {"kind": "Softmax"},
)

DEFAULTS = {
    "manifest": "manifest.json",
    "dataset": asdict(DatasetConfig()),
    "architecture": {"input_shape": [20, 20, 1], "layers": list(DEFAULT_LAYERS)},
    "taps": [2, 5, 7, 10],
    "k": 6,
    "train_fraction": 2.0 / 3.0,
    "decision_depth": 2,
    "threshold_reference_tap": 7,
    "threshold_final_tap": 10,
    "threshold_overrides": None,
    "train": {
        "base": {"learning_rate": 0.08, "epochs": 30, "batch_size": 16},
        "pair": {"learning_rate": 0.05, "epochs": 4, "batch_size": 32},
        "predictor": {"learning_rate": 0.02, "epochs": 45, "batch_size": 32},
    },
    "growth": {"max_branches_per_node": 4, "consolidation_window": 25},
    "heldout_classes": [],
    "master_seed": 3,
    "out_dir": "out",
}


def _integer(value, name: str) -> int:
    """``value`` when it is an int; a float, bool or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _train_config(d: dict, phase: str) -> TrainConfig:
    try:
        return TrainConfig(d["learning_rate"],
                           _integer(d["epochs"], f"train.{phase}.epochs"),
                           _integer(d["batch_size"], f"train.{phase}.batch_size"),
                           seed=int(d.get("seed", 0)))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad training budget {d}: {exc}") from exc


def load_config(path, cli_overrides=None) -> ExperimentConfig:
    """Read a config file, apply env and CLI overrides, validate."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=path.parent,
                            cli_overrides=cli_overrides)


def config_from_dict(raw: dict, base_dir=Path("."),
                     cli_overrides=None) -> ExperimentConfig:
    merged = dict(DEFAULTS)
    merged.update(raw or {})
    for env_key, (field_name, parse) in _ENV_FIELDS.items():
        value = os.environ.get(ENV_PREFIX + env_key)
        if value is not None:
            try:
                merged[field_name] = parse(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad {ENV_PREFIX}{env_key}={value!r}: {exc}") from exc
    for key, value in (cli_overrides or {}).items():
        if value is not None:
            merged[key] = value

    def integer(name):
        return _integer(merged[name], name)

    try:
        arch = merged["architecture"]
        layers = tuple(LayerSpec.from_dict(d) for d in arch["layers"])
        input_shape = tuple(arch["input_shape"])
        train = merged["train"]
        budgets = PhaseBudgets(**{phase: _train_config(train[phase], phase)
                                  for phase in ("base", "pair", "predictor")})
        cfg = ExperimentConfig(
            manifest=merged["manifest"],
            dataset=DatasetConfig(**(merged["dataset"] or {})),
            input_shape=input_shape,
            layers=layers,
            taps=tuple(merged["taps"]),
            k=integer("k"),
            train_fraction=float(merged["train_fraction"]),
            decision_depth=integer("decision_depth"),
            threshold_reference_tap=integer("threshold_reference_tap"),
            threshold_final_tap=integer("threshold_final_tap"),
            threshold_overrides=merged["threshold_overrides"],
            train=budgets,
            growth=dict(merged["growth"]),
            heldout_classes=tuple(merged["heldout_classes"]),
            master_seed=integer("master_seed"),
            out_dir=merged["out_dir"],
            base_dir=Path(base_dir),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc!r}") from exc
    return cfg.validate()


def default_config_dict() -> dict:
    """A complete config document with the library defaults."""
    return json.loads(json.dumps(DEFAULTS))  # deep copy
