"""Criterion 7's worst held-out cell over predictor seeds.

Criterion 7 asks that every held-out (class, tap) cell's mean predicted
applicability lie within 0.05 of the measured one.  This script builds
the desk-default pipeline once (prepare, train-base, measure and
train-predictors), then retrains the per-tap predictors under 10 seed
salts and prints each salt's worst cell and how many salts pass.  Only
the predictor seed changes: the base net, the records, the held-out
classes and the bound stay as the acceptance suite has them.

The script shares ``train-predictors``' fit: each salt trains and scores
through ``runner.fit_tap_predictor`` on the features that
``runner.predictor_features`` forwards, as ``run_train_predictors``
does.  Salt 0 is the shipped seed, ``derive_seed(master, 0x93ED, tap)``;
salt s > 0 trains with ``derive_seed(master, 0x93ED, tap, s)``.  Salt 0
is checked against the ``predictor_eval.csv`` that ``train-predictors``
writes.

It is a measurement, not a gate.  The test suite checks only that
``worst_cells`` at salt 0 reproduces ``predictor_eval.csv`` on its tiny
CLI pipeline.

Usage (from the root of a checkout; 72 s on 2 vCPUs of an Intel Xeon
with one BLAS thread):

    PYTHONPATH=src python3 benchmarks/predictor_seed_spread.py
"""

import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

from cactusnet import runner
from cactusnet.config import config_from_dict, default_config_dict
from cactusnet.fileio import fmt_float
from cactusnet.seeding import derive_seed

BOUND = 0.05
SALTS = 10


def build_pipeline(work: Path):
    """prepare -> train-base -> measure -> train-predictors at the desk
    default; returns the config."""
    doc = default_config_dict()
    (work / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    cfg = config_from_dict(doc, base_dir=work)
    runner.prepare(cfg)
    runner.run_train_base(cfg)
    runner.run_measure(cfg)
    runner.run_train_predictors(cfg)
    return cfg


def worst_cells(cfg, salts):
    """salt -> (worst |mean predicted - actual|, its (class, tap)), each
    salt fit as ``train-predictors`` fits its predictors."""
    table, manifest = runner.load_table(cfg)
    net = runner._load_base(cfg)
    heldout = json.loads((cfg.out_path / runner.PREDICTOR_SUMMARY).read_text())[
        "heldout_classes"]
    features = runner.predictor_features(cfg, net, manifest, heldout)
    out = {}
    for salt in salts:
        cells = []
        for tap in cfg.taps:
            seed = derive_seed(cfg.master_seed, 0x93ED, tap, *([salt] if salt else []))
            _, _, ev = runner.fit_tap_predictor(net, table, tap, features,
                                                manifest.measured_ids, heldout,
                                                cfg.train.predictor.with_seed(seed))
            cells += [(row.abs_err, (row.class_id, tap)) for row in ev.rows]
        out[salt] = max(cells)
        print(f"salt {salt}: worst cell {out[salt][0]:.4f} at (class, tap) "
              f"{out[salt][1]}", flush=True)
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = build_pipeline(Path(tmp))
        with open(cfg.out_path / runner.PREDICTOR_EVAL, encoding="utf-8") as fh:
            shipped = max((r["abs_err"] for r in csv.DictReader(fh)), key=float)
        worst = worst_cells(cfg, range(SALTS))
    if fmt_float(worst[0][0]) != shipped:
        print(f"salt 0 gave {fmt_float(worst[0][0])}, train-predictors {shipped}: "
              "this script's fit is not the one train-predictors runs",
              file=sys.stderr)
        return 1
    values = [w for w, _ in worst.values()]
    passed = sum(w <= BOUND for w in values)
    print(f"passes at <= {BOUND}: {passed} of {len(values)}; median worst cell "
          f"{statistics.median(values):.4f}; max {max(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
