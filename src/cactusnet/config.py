"""Experiment configuration: one JSON file drives every phase.

``DEFAULTS`` is its schema (see ``_merge``).  The command line's
``--out`` and ``--seed`` override ``out_dir`` and ``master_seed``; no
setting is read from the environment.
"""

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .cactus import GrowthConfig, Thresholds, compute_thresholds
from .errors import ConfigError
from .nn import LayerSpec, TrainConfig

# settings since removed; a document that still carries one loads
RETIRED_KEYS = ("workers",)


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
    threshold_overrides: Thresholds | None
    train: PhaseBudgets
    growth: GrowthConfig          # its seed is derived per run, not set here
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
    "growth": {f.name: f.default for f in fields(GrowthConfig) if f.name != "seed"},
    "heldout_classes": [],
    "master_seed": 3,
    "out_dir": "out",
}


def _integer(value, name: str) -> int:
    """``value`` when it is an int; a float, bool or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _merge(doc, schema: dict, where="", retired=()) -> dict:
    """``doc`` laid over ``schema`` key by key, recursing into every
    object the schema holds.  A non-object ``doc``, a key the schema
    lacks (other than a ``retired`` one, which is ignored), or a value
    unlike the schema's scalar is refused: a non-integer where it holds
    an integer, a non-string where it holds a string, and a bool or
    non-number where it holds a float."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'the config'} must be a JSON object, "
                          f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(schema) - set(retired))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in "
                          f"{where or 'the config'}")
    merged = {**schema, **doc}
    for key, default in schema.items():
        path = f"{where}.{key}" if where else key
        value = merged[key]
        if isinstance(default, dict) and key in doc:
            merged[key] = _merge(value, default, path)
        elif type(default) is int:
            _integer(value, path)
        elif type(default) is str and not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        elif type(default) is float and (isinstance(value, bool)
                                         or not isinstance(value, (int, float))):
            raise ConfigError(f"{path} must be a number, got {value!r}")
    return merged


def _group(doc, where: str) -> dict:
    """One idx group: ``images`` and ``labels`` paths, integer ``id_offset``."""
    group = _merge(doc, {"images": None, "labels": None, "id_offset": 0}, where)
    if not all(isinstance(group[key], str) for key in ("images", "labels")):
        raise ConfigError(f"{where} needs images and labels path strings")
    return group


def _thresholds(doc) -> Thresholds:
    baselines = _merge(doc, dict.fromkeys(("q", "y1", "y2")), "threshold_overrides")
    if None in baselines.values():
        raise ConfigError(f"threshold_overrides needs q, y1 and y2, got {doc}")
    return compute_thresholds(**baselines)


def load_config(path, cli_overrides=None) -> ExperimentConfig:
    """Read a config file, apply the CLI overrides, validate."""
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
    merged = _merge(raw, DEFAULTS, retired=RETIRED_KEYS)
    for key, value in (cli_overrides or {}).items():
        if value is not None:
            merged[key] = value

    try:
        arch, dataset = merged["architecture"], merged["dataset"]
        groups = [_group(g, f"dataset.groups[{i}]")
                  for i, g in enumerate(dataset["groups"])]
        overrides = merged["threshold_overrides"]
        cfg = ExperimentConfig(
            manifest=merged["manifest"],
            dataset=DatasetConfig(**{**dataset, "groups": groups}),
            input_shape=tuple(arch["input_shape"]),
            layers=tuple(LayerSpec.from_dict(d) for d in arch["layers"]),
            taps=tuple(merged["taps"]),
            k=merged["k"],
            train_fraction=float(merged["train_fraction"]),
            decision_depth=merged["decision_depth"],
            threshold_reference_tap=merged["threshold_reference_tap"],
            threshold_final_tap=merged["threshold_final_tap"],
            threshold_overrides=None if overrides is None else _thresholds(overrides),
            # seed 0: each phase derives its own from the master seed
            train=PhaseBudgets(**{phase: TrainConfig(**budget, seed=0)
                                  for phase, budget in merged["train"].items()}),
            growth=GrowthConfig(**merged["growth"]),
            heldout_classes=tuple(_integer(c, f"heldout_classes[{i}]")
                                  for i, c in enumerate(merged["heldout_classes"])),
            master_seed=merged["master_seed"],
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
