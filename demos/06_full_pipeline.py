#!/usr/bin/env python3
"""The whole experiment through the command-line interface.

Runs prepare -> train-base -> measure -> train-predictors ->
cactus-run -> report on a small configuration in a temporary
directory, exactly as a shell user would:

    cactusnet --config config.json prepare
    cactusnet --config config.json train-base
    cactusnet --config config.json measure
    ...
"""

import json
import tempfile
from pathlib import Path

from cactusnet.cli import main

CONFIG = {
    "dataset": {"type": "synthetic", "classes_per_family": 4, "per_class": 90,
                "image_side": 16, "seed": 11, "num_known": 2,
                "num_objective_unknown": 1, "num_nonobjective_unknown": 1},
    "architecture": {
        "layers": [
            {"kind": "Conv2D", "filters": 6, "kernel": [3, 3]},
            {"kind": "ReLU"},
            {"kind": "MaxPool2D", "kernel": [2, 2], "stride": 2},
            {"kind": "Flatten"},
            {"kind": "Dense", "units": 24},
            {"kind": "ReLU"},
            {"kind": "Dense", "units": 12},
            {"kind": "ReLU"},
            {"kind": "Dense", "units": 2},
            {"kind": "Softmax"},
        ]},
    "taps": [2, 5, 7],
    "k": 2,
    "decision_depth": 1,
    "train": {"base": {"learning_rate": 0.08, "epochs": 10, "batch_size": 16},
              "pair": {"learning_rate": 0.05, "epochs": 3, "batch_size": 16},
              "predictor": {"learning_rate": 0.02, "epochs": 12,
                            "batch_size": 16}},
    "heldout_classes": [2],
    "master_seed": 11,
}

with tempfile.TemporaryDirectory() as tmp:
    base = Path(tmp)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    stream = base / "stream.json"
    stream.write_text(json.dumps(
        {"type": "mock", "apps": [0.99, 0.99, 0.97, 0.3, 0.3, 0.3]}))

    for argv in (["prepare"], ["train-base"], ["measure"], ["train-predictors"],
                 ["cactus-run", str(stream)], ["report"]):
        code = main(["--config", str(cfg), *argv])
        print(f"$ cactusnet {' '.join(argv)}  -> exit {code}")
        assert code == 0

    out = base / "out"
    print("\nsubset curves:")
    print((out / "subset_curves.csv").read_text())
    print("verdict histogram:")
    print((out / "verdict_histogram.csv").read_text())
    print("report bundle:", sorted(p.name for p in (out / "report").iterdir()))
