"""Freeze-and-finetune separability and class applicability.

How well do the features learned at and below a layer distinguish one
class from the rest of the world?  We approximate "the rest of the
world" with a k-class probe set, fine-tune a 2-way head for each
(class, probe, layer) triple with every layer at and below the tap
frozen, and read off the balanced test accuracy.  The mean over the
probe set is the class applicability at that layer.
"""

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data.manifest import SplitStore, SubsetLabel
from .errors import AggregationError, DataError, NumericFailureError
from .fileio import atomic_open, fmt_float
from .nn import TrainConfig, backward, forward, predict, replace_head, sgd_step
from .nn.network import Network, freeze_through, head_index, one_hot, split_at
from .seeding import derive_seed, rng_for


@dataclass(frozen=True)
class SeparabilityRecord:
    """One 1-vs-1 job: accuracy of x vs probe un_j with layers <= i frozen."""
    x: int
    un_j: int
    layer_index: int
    xi: float
    seed: int


@dataclass(frozen=True)
class JobFailure:
    x: int
    un_j: int
    layer_index: int
    seed: int
    error: str


@dataclass(frozen=True)
class AppEntry:
    app: float
    records: tuple


@dataclass
class ApplicabilityTable:
    """(class, layer) -> applicability, with the records behind each cell."""
    entries: dict
    probe_set: tuple
    k: int
    classes: dict     # class_id -> ClassEntry
    failures: tuple = ()

    def app(self, class_id, layer_index) -> float:
        return self.entries[(class_id, layer_index)].app

    @property
    def layers(self):
        return sorted({layer for _, layer in self.entries})

    def row(self, class_id):
        return {layer: e.app for (cid, layer), e in self.entries.items()
                if cid == class_id}


# ---------------------------------------------------------------------
# Tap features: each (class, split) forwarded once
# ---------------------------------------------------------------------

def tap_features(net: Network, images, taps) -> dict:
    """tap -> the output of layer ``tap`` for ``images``.

    One forward through the prefix up to the deepest tap yields every
    tap; only the tap outputs are kept.
    """
    taps = sorted(taps)
    trace = forward(split_at(net, taps[-1])[0], images)
    return {tap: trace[tap] for tap in taps}


class TapFeatures:
    """Frozen-prefix outputs of (class, split) image stacks at their taps.

    Every job at a tap freezes the layers at and below it, so their
    output for an image is a constant of the base network: each stack is
    forwarded once, and jobs only read it.
    """

    def __init__(self, entries):
        self._entries = entries  # (class_id, split, tap) -> array | Exception

    @classmethod
    def build(cls, net: Network, splits: SplitStore,
              taps_by_class) -> "TapFeatures":
        """Forward the train and test stacks of each class to its taps.

        A stack that fails keeps the error for every tap it could not
        reach, and each job reading one of those taps raises it: a
        non-finite activation at layer i fails that stack's taps at and
        above i; the shallower ones are forwarded again up to the deepest
        of them.  Any other error fails all of the stack's taps.
        """
        images_of = {"train": splits.train_images, "test": splits.test_images}
        return cls({(cid, split, tap): value
                    for cid, taps in sorted(taps_by_class.items())
                    for split in ("train", "test")
                    for tap, value in _stack_features(
                        net, partial(images_of[split], cid), sorted(taps)).items()})

    def get(self, class_id, split, tap):
        value = self._entries[(class_id, split, tap)]
        if isinstance(value, Exception):
            raise value
        return value


def _stack_features(net, images, taps) -> dict:
    """tap -> features of one stack, or the error that kept it from
    that tap (see ``TapFeatures.build``); ``images`` is called for the
    stack inside the guard, so a missing stack fails only its taps."""
    entries = {}
    todo = taps
    while todo:
        try:
            got = tap_features(net, images(), todo)
        except NumericFailureError as exc:
            got = {t: exc for t in todo if t >= exc.layer_index}
        except Exception as exc:  # noqa: BLE001 - fails its jobs only
            got = dict.fromkeys(todo, exc)
        entries.update(got)
        todo = [t for t in todo if t not in got]
    return entries


def _taps_by_class(jobs) -> dict:
    """class_id -> the taps at which some job reads its features."""
    taps = {}
    for x, un_j, layer in jobs:
        for cid in (x, un_j):
            taps.setdefault(cid, set()).add(layer)
    return taps


# ---------------------------------------------------------------------
# Pair separability (one 1-vs-1 job)
# ---------------------------------------------------------------------

def _balanced_pair(a, b):
    m = min(a.shape[0], b.shape[0])
    if m == 0:
        raise DataError("empty split in 1-vs-1 job")
    return a[:m], b[:m]


def _train_balanced_pair(net, feats_a, feats_b, cfg):
    """SGD on an interleaved a/b stream: every even batch is balanced."""
    targets = {0: one_hot(np.zeros(1, int), 2)[0], 1: one_hot(np.ones(1, int), 2)[0]}
    m = feats_a.shape[0]
    rng = rng_for(cfg.seed)
    for _ in range(cfg.epochs):
        order_a = rng.permutation(m)
        order_b = rng.permutation(m)
        interleaved = np.empty((2 * m,) + feats_a.shape[1:], dtype=feats_a.dtype)
        interleaved[0::2] = feats_a[order_a]
        interleaved[1::2] = feats_b[order_b]
        labels = np.tile([targets[0], targets[1]], (m, 1))
        for lo in range(0, 2 * m, cfg.batch_size):
            batch = interleaved[lo:lo + cfg.batch_size]
            tgt = labels[lo:lo + cfg.batch_size]
            grads, _ = backward(net, batch, tgt, "CrossEntropy")
            net = sgd_step(net, grads, cfg)
    return net


def _pair_accuracy(net, feats_a, feats_b):
    pred_a = predict(net, feats_a).argmax(axis=1)
    pred_b = predict(net, feats_b).argmax(axis=1)
    correct = int((pred_a == 0).sum()) + int((pred_b == 1).sum())
    return correct / (feats_a.shape[0] + feats_b.shape[0])


def _self_control_pools(train, test, seed: int):
    """Split one class's features into two disjoint pseudo-classes."""
    rng = rng_for(seed, 0x5E1F)
    pools = []
    for feats in (train, test):
        order = rng.permutation(feats.shape[0])
        half = feats.shape[0] // 2
        pools.append((feats[order[:half]], feats[order[half:2 * half]]))
    return pools  # [(train_a, train_b), (test_a, test_b)]


def pair_separability(net: Network, layer_index: int, x: int, un_j: int,
                      splits, cfg: TrainConfig) -> SeparabilityRecord:
    """Fine-tune a 2-way head with layers <= ``layer_index`` frozen.

    Returns the balanced held-out accuracy as the separability xi.
    Passing ``un_j == x`` runs the chance-level self-control: the class
    is split against itself with disjointly re-drawn pools.  ``splits``
    is a ``TapFeatures`` holding this job's features, or a
    ``SplitStore``, whose stacks of x and un_j are then forwarded for
    this job alone.
    """
    if not 0 <= layer_index < head_index(net):
        raise DataError(f"layer_index {layer_index} out of range: the "
                        f"2-way head needs a trainable layer above the tap")
    if not isinstance(splits, TapFeatures):
        splits = TapFeatures.build(net, splits, _taps_by_class([(x, un_j, layer_index)]))
    seed = cfg.seed
    frozen = freeze_through(net, layer_index)
    frozen = replace_head(frozen, 2, seed=derive_seed(seed, 1))
    suffix = split_at(frozen, layer_index)[1]
    feats = partial(splits.get, tap=layer_index)

    try:
        if x == un_j:
            (tr_a, tr_b), (te_a, te_b) = _self_control_pools(
                feats(x, "train"), feats(x, "test"), seed)
        else:
            tr_a, tr_b = _balanced_pair(feats(x, "train"), feats(un_j, "train"))
            te_a, te_b = _balanced_pair(feats(x, "test"), feats(un_j, "test"))
        if min(tr_a.shape[0], te_a.shape[0]) == 0:
            raise DataError(f"empty split for pair ({x}, {un_j})")
        trained = _train_balanced_pair(
            suffix, tr_a, tr_b, cfg.with_seed(derive_seed(seed, 2)))
        xi = _pair_accuracy(trained, te_a, te_b)
    except NumericFailureError as exc:
        raise NumericFailureError(
            f"1-vs-1 job (x={x}, un_j={un_j}, layer={layer_index}) diverged: {exc}",
            layer_index=exc.layer_index, job=(x, un_j, layer_index)) from exc
    return SeparabilityRecord(x, un_j, layer_index, float(xi), seed)


# ---------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------

def class_applicability(records) -> float:
    """Mean separability over one class's probe records at one layer."""
    records = list(records)
    if not records:
        raise AggregationError("no records to aggregate")
    keys = {(r.x, r.layer_index) for r in records}
    if len(keys) != 1:
        raise AggregationError(f"records mix (class, layer) keys: {sorted(keys)}")
    probes = [r.un_j for r in records]
    if len(set(probes)) != len(probes):
        raise AggregationError(f"duplicate probe classes: {sorted(probes)}")
    return math.fsum(r.xi for r in records) / len(records)


def build_table(records, classes, probe_set, k, failures=()) -> ApplicabilityTable:
    """Assemble the (class, layer) table; incomplete cells stay absent."""
    cells = {}
    for r in records:
        cells.setdefault((r.x, r.layer_index), []).append(r)
    entries = {}
    for key, recs in sorted(cells.items()):
        if len(recs) != k:
            continue  # failed or partial cell: mark absent
        recs = tuple(sorted(recs, key=lambda r: r.un_j))
        entries[key] = AppEntry(class_applicability(recs), recs)
    return ApplicabilityTable(entries, tuple(probe_set), k, dict(classes),
                              tuple(failures))


@dataclass(frozen=True)
class SweepResult:
    table: ApplicabilityTable
    records: tuple
    failures: tuple


def sweep_jobs(classes_to_measure, probe_set, layers):
    """The deterministic job list of a sweep: (x, un_j, layer) triples."""
    return [(x, un_j, layer)
            for x in sorted(classes_to_measure)
            for layer in sorted(layers)
            for un_j in sorted(probe_set)]


def job_seed(master_seed, x, un_j, layer) -> int:
    """The seed of job (x, un_j, layer): a pure function of its identity."""
    return derive_seed(master_seed, 0xA11, x, un_j, layer)


def run_jobs(net, jobs, splits, cfg, master_seed, *, on_record=None):
    """Execute 1-vs-1 jobs in order in this thread, each seeded purely
    from its identity.

    The features of every (class, split) the jobs touch are forwarded
    once, before any job runs (``TapFeatures``).  Failed jobs are
    collected, not raised, so a long sweep always completes.
    ``on_record`` is called after each record (used for journaling); an
    error it raises stops the sweep.
    """
    features = TapFeatures.build(net, splits, _taps_by_class(jobs))
    records, failures = [], []
    for job in jobs:
        x, un_j, layer = job
        seed = job_seed(master_seed, *job)
        try:
            rec = pair_separability(net, layer, x, un_j, features,
                                    cfg.with_seed(seed))
        except Exception as exc:  # noqa: BLE001 - sweep must survive any job
            failures.append(JobFailure(*job, seed, str(exc)))
            continue
        records.append(rec)
        if on_record:
            on_record(rec)
    records.sort(key=lambda r: (r.x, r.layer_index, r.un_j))
    failures.sort(key=lambda f: (f.x, f.layer_index, f.un_j))
    return records, failures


def layer_sweep(net, classes_to_measure, probe_set, splits, cfg, layers,
                master_seed, classes=None, completed=(),
                on_record=None) -> SweepResult:
    """Measure every (class, layer) applicability over the probe set.

    Total jobs: len(classes) * len(probe_set) * len(layers).  Jobs whose
    (x, un_j, layer) key appears in ``completed`` are skipped, which
    makes interrupted sweeps resumable.
    """
    measure = sorted(classes_to_measure)
    probes = sorted(probe_set)
    overlap = set(measure) & set(probes)
    if overlap:
        # a self-pair would silently run the self-control instead
        raise DataError(
            f"classes {sorted(overlap)} appear both as measured and probe")
    done = set(completed)
    jobs = [j for j in sweep_jobs(measure, probes, layers) if j not in done]
    records, failures = run_jobs(net, jobs, splits, cfg, master_seed,
                                 on_record=on_record)
    if classes is None:
        classes = {cid: splits.entry(cid) for cid in measure}
    table = build_table(records, classes, probes, len(probes), failures)
    return SweepResult(table, tuple(records), tuple(failures))


def subset_average(table: ApplicabilityTable, labels=None):
    """Per-(subset, layer) mean applicability curves.

    ``labels`` maps class_id to SubsetLabel; defaults to the class
    entries stored in the table.
    """
    if labels is None:
        labels = {cid: entry.subset for cid, entry in table.classes.items()}
    by_curve = {}
    for (cid, layer), entry in table.entries.items():
        if cid not in labels:
            raise AggregationError(f"class {cid} has no subset label")
        by_curve.setdefault((labels[cid], layer), []).append(entry.app)
    return {key: math.fsum(vals) / len(vals)
            for key, vals in sorted(by_curve.items(),
                                    key=lambda kv: (kv[0][0].value, kv[0][1]))}


# ---------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------

def write_records_csv(path, records):
    rows = sorted(records, key=lambda r: (r.x, r.layer_index, r.un_j))
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "un_j", "layer", "xi", "seed"])
        for r in rows:
            w.writerow([r.x, r.un_j, r.layer_index, fmt_float(r.xi), r.seed])


def read_records_csv(path):
    """Records of the newline-terminated rows; a last row cut short by a
    kill is dropped, so its job runs again."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if line.endswith("\n")]
    return [SeparabilityRecord(int(row["x"]), int(row["un_j"]), int(row["layer"]),
                               float(row["xi"]), int(row["seed"]))
            for row in csv.DictReader(lines)]


def append_record_csv(path, record):
    with open(path, "a", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([record.x, record.un_j, record.layer_index,
                    fmt_float(record.xi), record.seed])
        fh.flush()


def write_table_csv(path, table: ApplicabilityTable):
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class_id", "class_name", "subset", "layer", "app", "k",
                    "n_records"])
        for (cid, layer), entry in sorted(table.entries.items()):
            meta = table.classes.get(cid)
            w.writerow([cid,
                        meta.class_name if meta else "",
                        meta.subset.value if meta else "",
                        layer, fmt_float(entry.app), table.k, len(entry.records)])


_SUBSET_ORDER = [SubsetLabel.OBJECTIVE_KNOWN, SubsetLabel.OBJECTIVE_UNKNOWN,
                 SubsetLabel.NONOBJECTIVE_UNKNOWN]


def write_curves_csv(path, curves):
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subset", "layer", "mean_app"])
        ordered = sorted(curves.items(),
                         key=lambda kv: (_SUBSET_ORDER.index(kv[0][0]), kv[0][1]))
        for (subset, layer), mean in ordered:
            w.writerow([subset.value, layer, fmt_float(mean)])
