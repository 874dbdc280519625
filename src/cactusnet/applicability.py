"""Freeze-and-finetune separability and class applicability.

How well do the features learned at and below a layer distinguish one
class from the rest of the world?  We approximate "the rest of the
world" with a k-class probe set, fine-tune a 2-way head for each
(class, probe, layer) triple with every layer at and below the tap
frozen, and read off the balanced test accuracy.  The mean over the
probe set is the class applicability at that layer.

The jobs at one tap share the frozen suffix's architecture and budget,
and mostly their feature shapes, so consecutive (class, layer) cells of a
tap train as one stack of networks (``nn.network.stack``): one SGD loop
whose every step moves all their heads, each on its own seeded batches,
with the bits it would get alone.  A stack grows only while its
estimated memory stays within the costliest single cell's.
"""

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice

import numpy as np

from .data.manifest import SplitStore, SubsetLabel
from .errors import (AggregationError, DataError, NumericFailureError,
                     ShapeMismatchError)
from .fileio import fmt_float, write_csv
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
    k: int
    classes: dict     # class_id -> ClassEntry

    def app(self, class_id, layer_index) -> float:
        return self.entries[(class_id, layer_index)].app


# ---------------------------------------------------------------------
# Tap features: each (class, split) forwarded once
# ---------------------------------------------------------------------

def tap_features(net: Network, images, taps) -> dict:
    """tap -> the output of layer ``tap`` for ``images``.

    One inference forward through the prefix up to the deepest tap yields
    every tap; only the tap outputs are kept.
    """
    taps = sorted(taps)
    return dict(zip(taps, forward(split_at(net, taps[-1])[0], images, taps)))


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
        above i, and any other error in the forward fails its deepest
        tap; the shallower ones are forwarded again up to the deepest of
        them.  A stack whose images cannot be read fails all its taps.
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
    stack inside a guard, so a missing stack fails only its taps."""
    try:
        x = images()
    except Exception as exc:  # noqa: BLE001 - fails its jobs only
        return dict.fromkeys(taps, exc)
    entries = {}
    todo = taps
    while todo:
        try:
            got = tap_features(net, x, todo)
        except NumericFailureError as exc:
            got = {t: exc for t in todo if t >= exc.layer_index}
        except Exception as exc:  # noqa: BLE001 - fails its jobs only
            got = {todo[-1]: exc}
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


def _pair_accuracies(net, tests, batch_size):
    """Balanced test accuracy of each stacked job; ``tests`` holds each
    job's (a, b) test features, all of one size, stacked and forwarded
    ``batch_size`` rows at a time."""
    correct = np.zeros(len(tests), dtype=np.int64)
    for label in (0, 1):
        rows = tests[0][label].shape[0]
        for lo in range(0, rows, batch_size):
            chunk = np.stack([t[label][lo:lo + batch_size] for t in tests])
            correct += (predict(net, chunk).argmax(axis=-1) == label).sum(axis=-1)
    return [int(c) / sum(part.shape[0] for part in tests[0]) for c in correct]


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
        tests = [data[j][2:] for j in group]
        for j, xi in zip(group, _pair_accuracies(trained, tests, cfg.batch_size)):
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


def build_table(records, classes, k) -> ApplicabilityTable:
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
    return ApplicabilityTable(entries, k, dict(classes))


@dataclass(frozen=True)
class SweepResult:
    table: ApplicabilityTable
    records: tuple
    failures: tuple


def sweep_jobs(classes_to_measure, probe_set, layers):
    """The deterministic job list of a sweep: (x, un_j, layer) triples,
    tap-major, so that the cells of one tap are consecutive."""
    return [(x, un_j, layer)
            for layer in sorted(layers)
            for x in sorted(classes_to_measure)
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


def _job_cost(suffix: Network, rows: int) -> int:
    """Floats one job of a stack holds while it trains: one ``rows``-row
    batch of the suffix's input and activations, the column matrices its
    forward keeps for backward, and four copies of its parameters (the
    stack's, their gradients, the step's scaled gradients and the next
    snapshot's)."""
    shapes = [suffix.input_shape, *suffix.shapes]
    cols = sum(math.prod(out[:2]) * math.prod(spec.kernel) * shape[-1]
               for spec, shape, out in zip(suffix.specs, shapes, suffix.shapes)
               if spec.kind == "Conv2D")
    params = sum(v.size for p in suffix.params if p is not None for v in p.values())
    return rows * (sum(map(math.prod, shapes)) + cols) + 4 * params


def _cell_stacks(net, cells, batch_size):
    """The cells split into runs of consecutive cells of one tap, each
    trained as one stack.

    A cell joins the stack before it while the stack's estimated working
    set (``_job_cost``, summed over its jobs) stays within that of the
    costliest single cell, so that joining cells costs no more memory
    than the largest cell alone.  Every batch a job forwards, a pair
    batch or a chunk of its test rows, has at most ``batch_size`` rows.
    """
    costs = []
    for cell in cells:
        try:
            suffix = split_at(net, cell[0][2])[1]
        except ShapeMismatchError:  # no suffix: every job of the cell fails
            costs.append(0)
            continue
        costs.append(len(cell) * _job_cost(suffix, batch_size))
    bound = max(costs, default=0)
    stacks, load = [], 0
    for cell, cost in zip(cells, costs):
        if stacks and stacks[-1][-1][0][2] == cell[0][2] and load + cost <= bound:
            stacks[-1].append(cell)
            load += cost
        else:
            stacks.append([cell])
            load = cost
    return stacks


def run_jobs(net, jobs, splits, cfg, master_seed, *, on_record=None,
             on_cell=None):
    """Execute 1-vs-1 jobs in order in this thread, each seeded purely
    from its identity.

    The features of every (class, split) the jobs touch are forwarded
    once, before any job runs (``TapFeatures``).  Runs of consecutive
    jobs with one (x, layer) cell are cells; consecutive cells of one
    tap train as one stack (``stacked_separability``) while the stack
    fits in the costliest cell's estimated memory (``_cell_stacks``).
    If a stack raises, its jobs run again one at a time, so each failure
    carries its own job's seed and error.  Failed jobs are collected,
    not raised, so a long sweep always completes.  ``on_record`` is
    called after each record, in job order (used for journaling); an
    error it raises stops the sweep.  ``on_cell(i, cells, x, layer,
    jobs, failed)`` is called after the i-th cell of ``cells``, once its
    stack is done.
    """
    features = TapFeatures.build(net, splits, _taps_by_class(jobs))
    cells = [list(cell) for _, cell in groupby(jobs, key=lambda j: (j[0], j[2]))]
    records, failures, i = [], [], 0
    for stack_cells in _cell_stacks(net, cells, cfg.batch_size):
        stacked = [job for cell in stack_cells for job in cell]
        layer = stacked[0][2]
        seeds = [job_seed(master_seed, *job) for job in stacked]
        try:
            xis = stacked_separability(net, layer, [job[:2] for job in stacked],
                                       features, cfg, seeds)
            outcomes = [SeparabilityRecord(*job[:2], layer, float(xi), seed)
                        for job, xi, seed in zip(stacked, xis, seeds)]
        except Exception:  # noqa: BLE001 - each job's own outcome below
            outcomes = [_job_alone(net, job, features, cfg, seed)
                        for job, seed in zip(stacked, seeds)]
        outcomes = iter(outcomes)
        for cell in stack_cells:
            i += 1
            done = list(islice(outcomes, len(cell)))
            for rec in done:
                if isinstance(rec, JobFailure):
                    failures.append(rec)
                    continue
                records.append(rec)
                if on_record:
                    on_record(rec)
            if on_cell:
                on_cell(i, len(cells), cell[0][0], layer, len(cell),
                        sum(isinstance(rec, JobFailure) for rec in done))
    records.sort(key=lambda r: (r.x, r.layer_index, r.un_j))
    failures.sort(key=lambda f: (f.x, f.layer_index, f.un_j))
    return records, failures


def layer_sweep(net, classes_to_measure, probe_set, splits, cfg, layers,
                master_seed, completed=(), on_record=None,
                on_cell=None) -> SweepResult:
    """Measure every (class, layer) applicability over the probe set.

    Total jobs: len(classes) * len(probe_set) * len(layers).  The table's
    classes are the ``splits`` entries of the measured ones.  The jobs of
    the ``completed`` records are skipped and their records returned with
    the new ones, so a resumed sweep returns the records and table an
    uninterrupted one would.  Two records of one job in ``completed``
    raise ``DataError``.
    """
    measure = sorted(classes_to_measure)
    probes = sorted(probe_set)
    overlap = set(measure) & set(probes)
    if overlap:
        # a self-pair would silently run the self-control instead
        raise DataError(
            f"classes {sorted(overlap)} appear both as measured and probe")
    done = {}
    for r in completed:
        job = (r.x, r.un_j, r.layer_index)
        if job in done:
            raise DataError(f"completed holds two records of job (x={r.x}, "
                            f"un_j={r.un_j}, layer={r.layer_index})")
        done[job] = r
    jobs = [j for j in sweep_jobs(measure, probes, layers) if j not in done]
    records, failures = run_jobs(net, jobs, splits, cfg, master_seed,
                                 on_record=on_record, on_cell=on_cell)
    records = sorted([*done.values(), *records],
                     key=lambda r: (r.x, r.layer_index, r.un_j))
    table = build_table(records, {cid: splits.entry(cid) for cid in measure},
                        len(probes))
    return SweepResult(table, tuple(records), tuple(failures))


def subset_average(table: ApplicabilityTable):
    """Per-(subset, layer) mean applicability curves, each class in the
    subset of its entry in ``table.classes``."""
    by_curve = {}
    for (cid, layer), entry in table.entries.items():
        if cid not in table.classes:
            raise AggregationError(f"class {cid} has no subset label")
        by_curve.setdefault((table.classes[cid].subset, layer), []).append(entry.app)
    return {key: math.fsum(vals) / len(vals)
            for key, vals in sorted(by_curve.items(),
                                    key=lambda kv: (kv[0][0].value, kv[0][1]))}


# ---------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------

def _record_row(r):
    return [r.x, r.un_j, r.layer_index, fmt_float(r.xi), r.seed]


def write_records_csv(path, records):
    rows = sorted(records, key=lambda r: (r.x, r.layer_index, r.un_j))
    write_csv(path, ["x", "un_j", "layer", "xi", "seed"], map(_record_row, rows))


def read_records_csv(path):
    """Records of the newline-terminated rows, one per job; a last row cut
    short by a kill is dropped, so its job runs again.  A row repeated
    exactly reads once.  A row that does not parse, whose ``xi`` is not in
    [0, 1], or that is a second, different record of one job raises
    ``DataError`` naming its line."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if line.endswith("\n"))
        try:
            parsed = [(SeparabilityRecord(int(row["x"]), int(row["un_j"]),
                                          int(row["layer"]), float(row["xi"]),
                                          int(row["seed"])), rows.line_num)
                      for row in rows]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {rows.line_num}: not a record: "
                            f"{exc!r}") from exc
    records = {}
    for r, line in parsed:
        if not 0.0 <= r.xi <= 1.0:  # NaN fails this too
            raise DataError(f"{path} line {line}: xi {r.xi!r} is not an "
                            "accuracy in [0, 1]")
        if records.setdefault((r.x, r.un_j, r.layer_index), r) != r:
            raise DataError(
                f"{path} line {line}: a second, different record of job "
                f"(x={r.x}, un_j={r.un_j}, layer={r.layer_index})")
    return list(records.values())


def append_record_csv(path, record):
    with open(path, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(_record_row(record))
        fh.flush()


def write_table_csv(path, table: ApplicabilityTable):
    rows = []
    for (cid, layer), entry in sorted(table.entries.items()):
        meta = table.classes.get(cid)
        rows.append([cid, meta.class_name if meta else "",
                     meta.subset.value if meta else "",
                     layer, entry.app, table.k, len(entry.records)])
    write_csv(path, ["class_id", "class_name", "subset", "layer", "app", "k",
                     "n_records"], rows)


_SUBSET_ORDER = [SubsetLabel.OBJECTIVE_KNOWN, SubsetLabel.OBJECTIVE_UNKNOWN,
                 SubsetLabel.NONOBJECTIVE_UNKNOWN]


def write_curves_csv(path, curves):
    ordered = sorted(curves.items(),
                     key=lambda kv: (_SUBSET_ORDER.index(kv[0][0]), kv[0][1]))
    write_csv(path, ["subset", "layer", "mean_app"],
              ([subset.value, layer, mean] for (subset, layer), mean in ordered))
