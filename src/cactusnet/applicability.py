"""Freeze-and-finetune separability and class applicability.

How well do the features learned at and below a layer distinguish one
class from the rest of the world?  We approximate "the rest of the
world" with a k-class probe set, fine-tune a 2-way head for each
(class, probe, layer) triple with every layer at and below the tap
frozen, and read off the balanced test accuracy.  The mean over the
probe set is the class applicability at that layer.

The k jobs of one (class, layer) cell share the frozen suffix's
architecture, feature shapes and budget, so they train as one stack of
networks (``nn.network.stack``): one SGD loop whose every step moves all
k heads, each on its own seeded batches, with the bits it would get alone.
"""

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .data.manifest import SplitStore, SubsetLabel
from .errors import AggregationError, DataError, NumericFailureError
from .fileio import atomic_open, fmt_float
from .nn import TrainConfig, backward, forward, predict, replace_head, sgd_step
from .nn.network import Network, head_index, one_hot, split_at, stack
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
# Pair separability: 1-vs-1 jobs, trained as a stack
# ---------------------------------------------------------------------

def _balanced_pair(a, b):
    m = min(a.shape[0], b.shape[0])
    if m == 0:
        raise DataError("empty split in 1-vs-1 job")
    return a[:m], b[:m]


def _train_balanced_pair(net, train_pairs, seeds, cfg):
    """SGD of a stack of jobs, each on its own interleaved a/b stream
    shuffled by its own seed: every even batch is balanced.

    ``train_pairs`` holds each job's (a, b) features, all of one size.
    Stream row ``r`` is ``a[order_a[r // 2]]`` for even ``r`` and
    ``b[order_b[r // 2]]`` for odd ``r``; each batch's rows are gathered
    as it is trained, so no stream is held whole.
    """
    first = train_pairs[0][0]
    m = first.shape[0]
    rngs = [rng_for(seed) for seed in seeds]
    labels = np.tile(one_hot([0, 1], 2), (len(train_pairs), m, 1))
    for _ in range(cfg.epochs):
        orders = [(rng.permutation(m), rng.permutation(m)) for rng in rngs]
        for lo in range(0, 2 * m, cfg.batch_size):
            hi = min(lo + cfg.batch_size, 2 * m)
            batch = np.empty((len(train_pairs), hi - lo) + first.shape[1:], first.dtype)
            for rows, (a, b), (order_a, order_b) in zip(batch, train_pairs, orders):
                rows[lo % 2::2] = a[order_a[(lo + 1) // 2:(hi + 1) // 2]]
                rows[1 - lo % 2::2] = b[order_b[lo // 2:hi // 2]]
            grads, _ = backward(net, batch, labels[:, lo:hi], "CrossEntropy")
            net = sgd_step(net, grads, cfg)
    return net


def _pair_accuracies(net, feats_a, feats_b):
    """Balanced test accuracy of each stacked job."""
    pred_a = predict(net, feats_a).argmax(axis=-1)
    pred_b = predict(net, feats_b).argmax(axis=-1)
    correct = (pred_a == 0).sum(axis=-1) + (pred_b == 1).sum(axis=-1)
    return [int(c) / (feats_a.shape[1] + feats_b.shape[1]) for c in correct]


def _self_control_pools(train, test, seed: int):
    """Split one class's features into two disjoint pseudo-classes."""
    rng = rng_for(seed, 0x5E1F)
    pools = []
    for feats in (train, test):
        order = rng.permutation(feats.shape[0])
        half = feats.shape[0] // 2
        pools.append((feats[order[:half]], feats[order[half:2 * half]]))
    return pools  # [(train_a, train_b), (test_a, test_b)]


def _job_features(features, layer_index, x, un_j, seed):
    """(train_a, train_b, test_a, test_b): one job's balanced features."""
    feats = partial(features.get, tap=layer_index)
    if x == un_j:
        (tr_a, tr_b), (te_a, te_b) = _self_control_pools(
            feats(x, "train"), feats(x, "test"), seed)
    else:
        tr_a, tr_b = _balanced_pair(feats(x, "train"), feats(un_j, "train"))
        te_a, te_b = _balanced_pair(feats(x, "test"), feats(un_j, "test"))
    if min(tr_a.shape[0], te_a.shape[0]) == 0:
        raise DataError(f"empty split for pair ({x}, {un_j})")
    return tr_a, tr_b, te_a, te_b


def stacked_separability(net: Network, layer_index: int, pairs, features,
                         cfg: TrainConfig, seeds) -> list:
    """The separability xi of each ``(x, un_j)`` job in ``pairs`` at one tap.

    Job ``j`` is ``pair_separability`` with seed ``seeds[j]``: its own
    2-way head from ``derive_seed(seed, 1)`` on the frozen suffix, its own
    batches from ``derive_seed(seed, 2)``.  Jobs whose balanced pairs have
    the same sizes train as one stack; jobs of other sizes form their own
    stacks, never padded.  ``features`` is a ``TapFeatures``.  Any error
    (a missing stack's, a non-finite step's) is raised for all the jobs.
    """
    if not 0 <= layer_index < head_index(net):
        raise DataError(f"layer_index {layer_index} out of range: the "
                        f"2-way head needs a trainable layer above the tap")
    suffix = split_at(net, layer_index)[1]
    data = [_job_features(features, layer_index, x, un_j, seed)
            for (x, un_j), seed in zip(pairs, seeds)]
    by_size = {}
    for j, (tr_a, _, te_a, _) in enumerate(data):
        by_size.setdefault((tr_a.shape[0], te_a.shape[0]), []).append(j)
    xis = [None] * len(data)
    for group in by_size.values():
        heads = stack([replace_head(suffix, 2, seed=derive_seed(seeds[j], 1))
                       for j in group])
        trained = _train_balanced_pair(
            heads, [data[j][:2] for j in group],
            [derive_seed(seeds[j], 2) for j in group], cfg)
        te_a, te_b = (np.stack([data[j][part] for j in group]) for part in (2, 3))
        for j, xi in zip(group, _pair_accuracies(trained, te_a, te_b)):
            xis[j] = xi
    return xis


def pair_separability(net: Network, layer_index: int, x: int, un_j: int,
                      splits, cfg: TrainConfig) -> SeparabilityRecord:
    """Fine-tune a 2-way head with layers <= ``layer_index`` frozen.

    Returns the balanced held-out accuracy as the separability xi: a
    stack of one job in ``stacked_separability``, seeded by ``cfg.seed``.
    Passing ``un_j == x`` runs the chance-level self-control: the class
    is split against itself with disjointly re-drawn pools.  ``splits``
    is a ``TapFeatures`` holding this job's features, or a
    ``SplitStore``, whose stacks of x and un_j are then forwarded for
    this job alone.
    """
    if not isinstance(splits, TapFeatures):
        splits = TapFeatures.build(net, splits, _taps_by_class([(x, un_j, layer_index)]))
    try:
        xi, = stacked_separability(net, layer_index, [(x, un_j)], splits, cfg,
                                   [cfg.seed])
    except NumericFailureError as exc:
        raise NumericFailureError(
            f"1-vs-1 job (x={x}, un_j={un_j}, layer={layer_index}) diverged: {exc}",
            layer_index=exc.layer_index, job=(x, un_j, layer_index)) from exc
    return SeparabilityRecord(x, un_j, layer_index, float(xi), cfg.seed)


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


def _job_alone(net, job, features, cfg, seed):
    """One job's record, or its failure."""
    x, un_j, layer = job
    try:
        return pair_separability(net, layer, x, un_j, features, cfg.with_seed(seed))
    except Exception as exc:  # noqa: BLE001 - sweep must survive any job
        return JobFailure(*job, seed, str(exc))


def run_jobs(net, jobs, splits, cfg, master_seed, *, on_record=None,
             on_cell=None):
    """Execute 1-vs-1 jobs in order in this thread, each seeded purely
    from its identity.

    The features of every (class, split) the jobs touch are forwarded
    once, before any job runs (``TapFeatures``).  Each run of consecutive
    jobs with one (x, layer) cell trains as one stack
    (``stacked_separability``); if the stack raises, its jobs run again
    one at a time, so each failure carries its own job's seed and error.
    Failed jobs are collected, not raised, so a long sweep always
    completes.  ``on_record`` is called after each record, in job order
    (used for journaling); an error it raises stops the sweep.
    ``on_cell(i, cells, x, layer, jobs, failed)`` is called after the
    i-th cell of ``cells``.
    """
    features = TapFeatures.build(net, splits, _taps_by_class(jobs))
    cells = [list(cell) for _, cell in groupby(jobs, key=lambda j: (j[0], j[2]))]
    records, failures = [], []
    for i, cell in enumerate(cells, start=1):
        x, _, layer = cell[0]
        seeds = [job_seed(master_seed, *job) for job in cell]
        try:
            xis = stacked_separability(net, layer, [job[:2] for job in cell],
                                       features, cfg, seeds)
            done = [SeparabilityRecord(*job[:2], layer, float(xi), seed)
                    for job, xi, seed in zip(cell, xis, seeds)]
        except Exception:  # noqa: BLE001 - each job's own outcome below
            done = [_job_alone(net, job, features, cfg, seed)
                    for job, seed in zip(cell, seeds)]
        for rec in done:
            if isinstance(rec, JobFailure):
                failures.append(rec)
                continue
            records.append(rec)
            if on_record:
                on_record(rec)
        if on_cell:
            on_cell(i, len(cells), x, layer, len(cell),
                    sum(isinstance(rec, JobFailure) for rec in done))
    records.sort(key=lambda r: (r.x, r.layer_index, r.un_j))
    failures.sort(key=lambda f: (f.x, f.layer_index, f.un_j))
    return records, failures


def layer_sweep(net, classes_to_measure, probe_set, splits, cfg, layers,
                master_seed, classes=None, completed=(),
                on_record=None, on_cell=None) -> SweepResult:
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
                                 on_record=on_record, on_cell=on_cell)
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
