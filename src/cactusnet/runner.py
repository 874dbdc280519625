"""Experiment phases behind the CLI verbs.

Each phase is a deterministic function of (config, inputs, seeds) and
communicates with later phases only through files under the output
directory; rerunning a phase with the same config reproduces its
outputs byte for byte.

The verbs that call ``applicability``, ``cactus`` or ``predictor`` import
them in their own bodies, so a CLI process loads none of them unless its
verb runs it; the applicability table every later phase reads is in
``table``, which holds no sweep code.
"""

import csv
import hashlib
import json
import sys
from contextlib import closing
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, compute_thresholds
from .data import (ClassImages, DatasetManifest, SubsetLabel,
                   generate_synthetic, load_dataset, load_idx, render_class,
                   synthetic_manifest)
from .errors import CactusNetError, ConfigError, DataError
from .fileio import atomic_open, write_csv, write_json
# perfbench's tracer patches and checks the runner.forward binding
from .nn import (Network, accuracy, checkpoint_load, checkpoint_save,  # noqa: F401
                 forward, train_classifier)
from .seeding import derive_seed
from .table import (append_record_csv, build_table, read_records_csv,
                    subset_average, write_curves_csv, write_records_csv,
                    write_table_csv)

BASE_CKPT = "base.ckpt"
BASE_METRICS = "base_metrics.csv"
RECORDS_CSV = "records.csv"
TABLE_CSV = "applicability.csv"
CURVES_CSV = "subset_curves.csv"
MEASURE_META = "measure_meta.json"
RUN_FINGERPRINT = "records_run.json"
PREDICTOR_SUMMARY = "predictor_summary.json"
PREDICTOR_EVAL = "predictor_eval.csv"
GROWTH_LOG = "growth_log.jsonl"
TREE_DIR = "tree"
HISTOGRAM_CSV = "verdict_histogram.csv"
REPORT_DIR = "report"


# ---------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------

def _synthetic(cfg: ExperimentConfig, class_ids):
    """The config's synthetic corpus, with only ``class_ids`` rendered."""
    return generate_synthetic(cfg.dataset.classes_per_family, cfg.dataset.per_class,
                              cfg.dataset.image_side, cfg.dataset.seed, class_ids)


def class_images(cfg: ExperimentConfig, manifest: DatasetManifest,
                 class_ids=None) -> ClassImages:
    """The manifest classes ``class_ids`` (default: every one) of the
    config's corpus, each split rendered, or cut from its IDX group, only
    when a phase reads it (``ClassImages``)."""
    if cfg.dataset.type == "synthetic":
        d, ds = cfg.dataset, _synthetic(cfg, ())  # its class list; renders none
        return ClassImages(manifest, {c.class_id: d.per_class for c in ds.classes},
                           partial(render_class, d.classes_per_family, d.image_side,
                                   d.seed), class_ids)
    rows = {}   # class_id -> (its group's images, the class's rows in them)
    for i, group in enumerate(cfg.dataset.groups):
        images = load_idx(cfg.path(group["images"]))
        labels = load_idx(cfg.path(group["labels"]))
        if len(images) != len(labels):
            raise DataError(f"dataset.groups[{i}] holds {len(images)} images "
                            f"but {len(labels)} labels")
        for cid in np.unique(labels):
            rows[int(cid) + group["id_offset"]] = images, np.flatnonzero(labels == cid)

    def cut(cid, indices):
        images, where = rows[cid]
        return images[where[indices]]

    return ClassImages(manifest, {cid: len(where) for cid, (_, where) in rows.items()},
                       cut, class_ids)


def load_manifest(cfg: ExperimentConfig) -> DatasetManifest:
    if not cfg.manifest_path.is_file():
        raise ConfigError(f"manifest not found: {cfg.manifest_path}")
    return DatasetManifest.load(cfg.manifest_path)


def prepare(cfg: ExperimentConfig) -> dict:
    """Write the manifest for a synthetic experiment (the one phase that
    creates rather than consumes the manifest)."""
    if cfg.dataset.type != "synthetic":
        raise ConfigError("prepare only generates synthetic manifests; "
                          "point `manifest` at an existing file instead")
    manifest = synthetic_manifest(
        _synthetic(cfg, ()), cfg.dataset.num_known, cfg.dataset.num_objective_unknown,
        cfg.dataset.num_nonobjective_unknown, cfg.k, cfg.train_fraction,
        seed=cfg.dataset.seed)
    cfg.manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest.save(cfg.manifest_path)
    return {"manifest": str(cfg.manifest_path)}


def _load_base(cfg: ExperimentConfig) -> Network:
    """The base network; a missing checkpoint raises ``ConfigError``."""
    path = cfg.out_path / BASE_CKPT
    if not path.is_file():
        raise ConfigError(f"base checkpoint missing: {path} (run train-base first)")
    return checkpoint_load(path)


def _known_training_set(manifest, source):
    """(train images, labels, test images, labels) of the known classes,
    each labelled by its position in ``known_ids``."""
    out = []
    for images_of in (source.train_images, source.test_images):
        stacks = [images_of(c) for c in manifest.known_ids]
        out += [np.concatenate(stacks),
                np.concatenate([np.full(len(x), i, dtype=np.int64)
                                for i, x in enumerate(stacks)])]
    return out


# ---------------------------------------------------------------------
# train-base
# ---------------------------------------------------------------------

def run_train_base(cfg: ExperimentConfig) -> dict:
    manifest = load_manifest(cfg)
    if not manifest.known_ids:
        raise ConfigError("manifest has no objective-known classes")
    images, labels, test, test_labels = _known_training_set(
        manifest, class_images(cfg, manifest, manifest.known_ids))

    net = Network.build(cfg.layers, images.shape[1:],
                        seed=derive_seed(cfg.master_seed, 0xBA5E))
    if net.output_shape[0] != len(manifest.known_ids):
        raise ConfigError(f"the base net's head has {net.output_shape[0]} outputs but "
                          f"the manifest has {len(manifest.known_ids)} known classes")
    budget = cfg.train.base.with_seed(derive_seed(cfg.master_seed, 0xBA5E, 1))
    net, history = train_classifier(net, images, labels, budget)
    test_acc = accuracy(net, test, test_labels)

    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    checkpoint_save(net, out / BASE_CKPT)
    write_csv(out / BASE_METRICS, ["epoch", "loss", "accuracy"],
              ([row["epoch"], row["loss"], row["accuracy"]] for row in history))
    return {"test_accuracy": test_acc, "epochs": len(history),
            "checkpoint": str(out / BASE_CKPT)}


# ---------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------

def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _measure_settings(cfg, manifest) -> dict:
    """What a sweep's records depend on, apart from the base net."""
    return {"manifest_sha256": _sha256(cfg.manifest_path),
            "master_seed": cfg.master_seed,
            "taps": list(cfg.taps),
            "k": manifest.k,
            "pair_budget": {"learning_rate": cfg.train.pair.learning_rate,
                            "epochs": cfg.train.pair.epochs,
                            "batch_size": cfg.train.pair.batch_size}}


def _check_resume(records_path, records, fingerprint_path, fingerprint):
    """Refuse to resume a journal written by another run."""
    from .applicability import job_seed
    for r in records:
        want = job_seed(fingerprint["master_seed"], r.x, r.un_j, r.layer_index)
        if r.seed != want:
            raise ConfigError(
                f"{records_path} holds another run's record (x={r.x}, "
                f"un_j={r.un_j}, layer={r.layer_index}): seed {r.seed}, but "
                f"master seed {fingerprint['master_seed']} gives {want}; use a "
                "fresh out_dir or the run's own seed")
    found = None
    if fingerprint_path.is_file():
        try:
            found = json.loads(fingerprint_path.read_text(encoding="utf-8"))
        except ValueError:
            pass
    if not isinstance(found, dict):
        raise ConfigError(
            f"{records_path} has no readable run fingerprint "
            f"({fingerprint_path.name}), so it cannot be told apart from "
            "another run's; use a fresh out_dir or delete the journal")
    differ = sorted(key for key in fingerprint if found.get(key) != fingerprint[key])
    if differ:
        raise ConfigError(
            f"{records_path} was written by another run: {', '.join(differ)} "
            f"differ from {fingerprint_path.name}; use a fresh out_dir or "
            "the run's own settings")


def _print_cell(i, cells, x, layer, jobs, failed):
    print(f"measure: cell {i}/{cells} (x={x}, layer={layer}): {jobs} jobs, "
          f"{failed} failed", file=sys.stderr)


def run_measure(cfg: ExperimentConfig) -> dict:
    from .applicability import layer_sweep
    manifest = load_manifest(cfg)
    out = cfg.out_path
    base_path = out / BASE_CKPT
    net = _load_base(cfg)
    # every manifest class is checked here; a split is rendered only when
    # a remaining job reads it
    source = class_images(cfg, manifest)

    settings = _measure_settings(cfg, manifest)
    fingerprint = {**settings, "base_ckpt_sha256": _sha256(base_path)}
    records_path = out / RECORDS_CSV
    fingerprint_path = out / RUN_FINGERPRINT
    completed = []
    if records_path.is_file():
        completed = read_records_csv(records_path)
        _check_resume(records_path, completed, fingerprint_path, fingerprint)
    else:
        # written before the journal, so a journal always has one
        write_json(fingerprint_path, fingerprint)
    # rewrite the journal without a torn last row, so appends start a line
    write_records_csv(records_path, completed)

    result = layer_sweep(
        net, manifest.measured_ids, manifest.probe_set, source,
        cfg.train.pair, cfg.taps, master_seed=cfg.master_seed,
        completed=completed,
        on_record=partial(append_record_csv, records_path),
        on_cell=_print_cell)
    for f in result.failures:
        print(f"job failed (x={f.x}, un_j={f.un_j}, layer={f.layer_index}): "
              f"{f.error}", file=sys.stderr)

    # canonical rewrite: byte-identical regardless of completion order
    write_records_csv(records_path, result.records)
    write_table_csv(out / TABLE_CSV, result.table)
    write_curves_csv(out / CURVES_CSV, subset_average(result.table))
    write_json(out / MEASURE_META, {
        **settings,
        "jobs": len(result.records),
        "failures": [{"x": f.x, "un_j": f.un_j, "layer": f.layer_index,
                      "error": f.error} for f in result.failures],
    })
    return {"records": len(result.records), "failures": len(result.failures),
            "entries": len(result.table.entries)}


def load_table(cfg: ExperimentConfig):
    if not (cfg.out_path / RECORDS_CSV).is_file():
        raise ConfigError("applicability records missing: run measure first")
    manifest = load_manifest(cfg)
    records = read_records_csv(cfg.out_path / RECORDS_CSV)
    return build_table(records, {c.class_id: c for c in manifest.classes},
                           manifest.k), manifest


def _require_cells(cfg: ExperimentConfig, table, manifest):
    """Refuse a table that lacks a measured (class, tap) cell."""
    missing = [(cid, tap) for cid in manifest.measured_ids for tap in cfg.taps
               if (cid, tap) not in table.entries]
    if missing:
        raise ConfigError(
            f"the applicability table lacks the (class, layer) cells "
            f"{', '.join(map(str, missing))}: a job failed or its record is "
            "missing; rerun measure to fill them")


# ---------------------------------------------------------------------
# train-predictors
# ---------------------------------------------------------------------

def _auto_heldout(manifest, table, taps) -> list:
    """One held-out class per subset: the most representative member.

    Representative means the class whose applicability row is closest
    (L2 over the tapped layers) to its subset's mean curve
    (``subset_average``); ties break to the lower class id.  Atypical
    classes stay in the training pool, where their unusual activations
    broaden predictor coverage.
    """
    curves = subset_average(table)
    picks = []
    for subset in SubsetLabel:
        ids = [cid for cid in manifest.measured_ids
               if manifest.entry(cid).subset is subset]
        if ids:
            picks.append(min(ids, key=lambda c: (
                sum((table.app(c, t) - curves[subset, t]) ** 2 for t in taps), c)))
    return picks


def predictor_ckpt_name(tap: int) -> str:
    return f"predictor_tap{tap:02d}.ckpt"


def predictor_features(cfg: ExperimentConfig, net, manifest, heldout):
    """The ``TapFeatures`` the predictors train on: the train split of
    every measured class and the test split of each ``heldout`` class,
    at every tap.  A stack that could not be forwarded raises its error
    here, before any predictor is fitted."""
    from .applicability import TapFeatures
    stacks = [*((cid, "train") for cid in manifest.measured_ids),
              *((cid, "test") for cid in heldout)]
    features = TapFeatures.build(net, class_images(cfg, manifest, manifest.measured_ids),
                                 dict.fromkeys(stacks, cfg.taps))
    for cid, split in stacks:
        for tap in cfg.taps:
            features.get(cid, split, tap)
    return features


def fit_tap_predictor(net, table, tap, features, measured, heldout, budget):
    """(model, report, evaluation) of ``tap``'s predictor trained under
    ``budget`` on ``predictor_features``.  The ``heldout`` classes of
    ``measured`` are held out: the report scores their train split, the
    evaluation their test split."""
    from .predictor import evaluate_predictor, train_predictor
    train_ids = [cid for cid in measured if cid not in heldout]
    samples, held_samples = (
        [(act, table.app(cid, tap)) for cid in ids
         for act in features.get(cid, "train", tap)]
        for ids in (train_ids, heldout))
    model, report = train_predictor(net.shapes[tap], samples, budget,
                                    heldout=held_samples, layer_index=tap,
                                    train_class_ids=train_ids)
    evaluation = evaluate_predictor(model, {cid: (features.get(cid, "test", tap),
                                                  table.app(cid, tap))
                                            for cid in heldout})
    return model, report, evaluation


def run_train_predictors(cfg: ExperimentConfig) -> dict:
    from .parallel import ordered_map
    from .predictor import save_predictor
    out = cfg.out_path
    net = _load_base(cfg)
    table, manifest = load_table(cfg)
    _require_cells(cfg, table, manifest)

    heldout = list(cfg.heldout_classes) or _auto_heldout(manifest, table, cfg.taps)
    bad = [c for c in heldout if c not in manifest.measured_ids]
    if bad:
        raise ConfigError(f"held-out classes {bad} are not measured classes")
    if set(manifest.measured_ids) <= set(heldout):
        raise ConfigError(f"held-out classes {sorted(heldout)} are every measured "
                          "class, so no class is left to train the predictors "
                          "on; hold out fewer in heldout_classes")

    features = predictor_features(cfg, net, manifest, heldout)

    def fit(tap):
        return fit_tap_predictor(
            net, table, tap, features, manifest.measured_ids, heldout,
            cfg.train.predictor.with_seed(derive_seed(cfg.master_seed, 0x93ED, tap)))

    summary, eval_rows = [], []
    # one forked worker per CPU fits the taps; each fit's bits are the
    # in-process fit's, and this process writes every file
    with closing(ordered_map(fit, cfg.taps)) as fits:
        for tap, (model, report, evaluation) in zip(cfg.taps, fits):
            save_predictor(model, out / predictor_ckpt_name(tap))
            summary.append({"layer": tap,
                            "train_mse": report.final_train_mse,
                            "heldout_mse": report.heldout_mse})
            eval_rows += [[row.class_id, manifest.entry(row.class_id).subset.value,
                           tap, row.actual_app, row.mean_predicted, row.abs_err]
                          for row in evaluation.rows]

    write_json(out / PREDICTOR_SUMMARY,
                {"layers": summary, "heldout_classes": sorted(heldout)})
    write_csv(out / PREDICTOR_EVAL, ["class", "subset", "layer", "actual_app",
                                     "mean_predicted", "abs_err"],
              sorted(eval_rows, key=lambda r: (r[0], r[2])))
    return {"layers": summary, "heldout": sorted(heldout)}


# ---------------------------------------------------------------------
# cactus-run
# ---------------------------------------------------------------------

def build_cactus_tree(cfg: ExperimentConfig, mock=False):
    from . import cactus
    from .predictor import load_predictor, predict_batch
    out = cfg.out_path
    net = _load_base(cfg)
    table, manifest = load_table(cfg)
    if not cfg.threshold_overrides:
        _require_cells(cfg, table, manifest)
    thresholds = cfg.threshold_overrides or compute_thresholds(
        *cactus.baseline_from_tables(table, cfg.decision_tap, max(cfg.taps)))
    predictors = {}
    for tap in cfg.taps:
        if mock:
            predictors[tap] = _mock_only
        else:
            ckpt = out / predictor_ckpt_name(tap)
            if not ckpt.is_file():
                raise ConfigError(f"predictor checkpoint missing: {ckpt}")
            predictors[tap] = partial(predict_batch, load_predictor(ckpt))
    return cactus.build_tree(net, cfg.taps, predictors, thresholds,
                             labels=manifest.known_ids,
                             decision_depth=cfg.decision_depth), manifest


def _mock_only(activations):
    raise ConfigError("mock stream items must carry a mock_app value")


def read_stream(cfg: ExperimentConfig, manifest, doc, input_shape):
    """Decode a parsed stream document into ((image, mock_app),
    subset_tag) items; a mock item's image is a blank of ``input_shape``.

    Formats: {"type": "mock", "apps": [...]} replays scripted
    applicability values; {"type": "manifest", "classes": [...],
    "per_class": n} draws the first n test images of manifest classes
    (n an integer >= 1, default 1, and at most each class's test split),
    rendering only those;
    {"type": "dataset", "path": ...} walks a binary dataset cache.
    A document missing a field or holding an ill-typed one, or naming a
    dataset file that cannot be opened, raises ``ConfigError``; an error
    the package raises itself (a corrupt dataset cache, an unknown
    class) passes through as it is.
    """
    try:
        kind = doc.get("type")
        if kind == "mock":
            apps = doc["apps"]
            for i, a in enumerate(apps):
                if isinstance(a, bool) or not (isinstance(a, (int, float))
                                               and 0 <= a <= 1):
                    raise ConfigError(f"stream apps[{i}] must be a number in "
                                      f"[0, 1], got {a!r}")
            blank = np.zeros(input_shape, dtype=np.float32)
            return [((blank, float(a)), "mock") for a in apps]
        if kind == "manifest":
            per = doc.get("per_class", 1)
            if isinstance(per, bool) or not isinstance(per, int) or per < 1:
                raise ConfigError(
                    f"stream per_class must be an integer >= 1, got {per!r}")
            entries = [manifest.entry(cid) for cid in doc["classes"]]
            source = class_images(cfg, manifest, [e.class_id for e in entries])
            tests = [source.split(e.class_id)[1] for e in entries]
            for e, test in zip(entries, tests):
                if per > len(test):
                    raise ConfigError(
                        f"stream per_class {per} exceeds the {len(test)} test "
                        f"images of class {e.class_id}")
            return [((img, None), e.subset.value) for e, test in zip(entries, tests)
                    for img in source.render(e.class_id, test[:per])]
        if kind == "dataset":
            ds = load_dataset(cfg.path(doc["path"]))
            return [((img, None), ds.family(cid))
                    for cid in sorted(ds.images) for img in ds.images[cid]]
    except CactusNetError:
        raise
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid stream document: {exc!r}") from exc
    raise ConfigError(f"unknown stream type {kind!r}")


def run_cactus(cfg: ExperimentConfig, stream_path) -> dict:
    from . import cactus
    out = cfg.out_path
    stream_path = Path(stream_path)
    if not stream_path.is_file():
        raise ConfigError(f"stream file not found: {stream_path}")
    try:
        doc = json.loads(stream_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"stream file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"stream file must hold a JSON object, "
                          f"got a {type(doc).__name__}")
    tree, manifest = build_cactus_tree(cfg, mock=doc.get("type") == "mock")
    items = read_stream(cfg, manifest, doc, tree.root.block.input_shape)

    gcfg = replace(cfg.growth, seed=derive_seed(cfg.master_seed, 0x6120))
    log = cactus.grow(tree, [item for item, _ in items], gcfg)

    cactus.save_growth_log(log, out / GROWTH_LOG)
    cactus.save_tree(tree, out / TREE_DIR)
    counts = {}
    for (item, subset), decision in zip(items, log.decisions):
        key = (subset, decision.verdict.value)
        counts[key] = counts.get(key, 0) + 1
    write_csv(out / HISTOGRAM_CSV, ["subset", "verdict", "count"],
              ([*key, count] for key, count in sorted(counts.items())))
    branches = [d.branch_created for d in log.decisions
                if d.branch_created is not None]
    return {"inputs": len(log.decisions), "branches_created": branches,
            "verdicts": {v.value: c for v, c in log.verdict_counts().items()}}


# ---------------------------------------------------------------------
# report
# ---------------------------------------------------------------------

def run_report(cfg: ExperimentConfig) -> dict:
    from . import cactus
    out = cfg.out_path
    missing = [name for name in (CURVES_CSV, PREDICTOR_EVAL, GROWTH_LOG)
               if not (out / name).is_file()]
    if missing:
        raise ConfigError(f"report inputs missing: {missing}")
    # predictor fidelity: one row per held-out class, taken at the
    # decision tap (the full per-layer sweep stays in predictor_eval.csv)
    try:
        with open(out / PREDICTOR_EVAL, encoding="utf-8", newline="") as fh:
            eval_rows = sorted(
                ([r["class"], r["subset"], r["actual_app"], r["mean_predicted"],
                  r["abs_err"]] for r in csv.DictReader(fh)
                 if int(r["layer"]) == cfg.decision_tap),
                key=lambda row: int(row[0]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{out / PREDICTOR_EVAL} holds a corrupt row: "
                        f"{exc!r}") from exc
    log = cactus.load_growth_log(out / GROWTH_LOG)
    report = out / REPORT_DIR
    report.mkdir(parents=True, exist_ok=True)

    # subset curves: schema subset,layer,mean_app
    with atomic_open(report / "curves.csv", "wb") as fh:
        fh.write((out / CURVES_CSV).read_bytes())

    write_csv(report / "predictor_fidelity.csv",
              ["class", "subset", "actual_app", "mean_predicted", "abs_err"], eval_rows)

    counts = {v.value: c for v, c in sorted(
        log.verdict_counts().items(), key=lambda kv: kv[0].value)}
    write_json(report / "growth_summary.json", {
        "inputs": len(log.decisions),
        "verdicts": counts,
        "branches_created": [d.branch_created for d in log.decisions
                             if d.branch_created is not None],
        "unrouted": sum(1 for d in log.decisions if d.unrouted),
    })
    return {"report_dir": str(report)}
