"""Separability records and the applicability table built from them.

A sweep (``applicability``) writes one ``SeparabilityRecord`` per
1-vs-1 job; the mean over a class's probe records at one layer is its
applicability, and the (class, layer) cells form the
``ApplicabilityTable`` that the predictors, the CactusNet's thresholds
and the report read.  This module holds the records, the table, the
subset curves and their CSV files, and no sweep code, so that a phase
which only reads a table loads none.
"""

import csv
import math
from dataclasses import dataclass

from .data.manifest import SubsetLabel
from .errors import AggregationError, DataError
from .fileio import fmt_float, write_csv


@dataclass(frozen=True)
class SeparabilityRecord:
    """One 1-vs-1 job: accuracy of x vs probe un_j with layers <= i frozen."""
    x: int
    un_j: int
    layer_index: int
    xi: float
    seed: int


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


def subset_average(table: ApplicabilityTable):
    """Per-(subset, layer) mean applicability curves, each class in the
    subset of its entry in ``table.classes``, in ``SubsetLabel`` order and
    then layer order."""
    by_curve = {}
    for (cid, layer), entry in table.entries.items():
        if cid not in table.classes:
            raise AggregationError(f"class {cid} has no subset label")
        by_curve.setdefault((table.classes[cid].subset, layer), []).append(entry.app)
    order = list(SubsetLabel)
    return {key: math.fsum(vals) / len(vals)
            for key, vals in sorted(by_curve.items(),
                                    key=lambda kv: (order.index(kv[0][0]), kv[0][1]))}


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


def write_curves_csv(path, curves):
    """``subset_average``'s curves, one row each, in its order."""
    write_csv(path, ["subset", "layer", "mean_app"],
              ([subset.value, layer, mean] for (subset, layer), mean in curves.items()))
