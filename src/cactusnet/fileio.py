"""On-disk formats: the binary container, JSON documents, CSV files.

The container (checkpoints and dataset caches) is an 8-byte magic, a
little-endian uint32 header length, a UTF-8 JSON header, then raw
little-endian float32 tensors.  Every whole file is written through
``atomic_open``.
"""

import csv
import json
import os
import struct
from contextlib import contextmanager
from math import prod
from pathlib import Path

import numpy as np

from .errors import CheckpointError


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Write a file beside ``path`` and move it onto ``path`` when the
    block exits cleanly.  A write that raises, or a killed process,
    leaves the old ``path`` as it was, and a raise removes the temp file.
    There is no fsync: this survives the process, not a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container(path, magic: bytes, header: dict, tensors):
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(blob)) + blob)
        for t in tensors:
            fh.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def read_container(path, magic: bytes, parse):
    """Read a container; returns ``(decoded, tensors)``.

    ``parse(header)`` returns ``(decoded, shapes)``, the payload tensor
    shapes in order.  Any defect, including a ``KeyError``, ``TypeError``
    or ``ValueError`` in ``parse``, raises ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    found, start = raw[:len(magic)], len(magic) + 4
    if found != magic:
        raise CheckpointError(f"bad magic {found!r}, expected {magic!r}: {path}",
                              found_magic=found, expected_magic=magic)
    if len(raw) < start:
        raise CheckpointError(f"truncated header: {path}")
    offset = start + struct.unpack("<I", raw[start - 4:start])[0]
    if len(raw) < offset:
        raise CheckpointError(f"truncated header: {path}")
    try:
        decoded, shapes = parse(json.loads(raw[start:offset].decode("utf-8")))
        shapes = [tuple(int(d) for d in shape) for shape in shapes]
        if any(d < 0 for shape in shapes for d in shape):
            raise ValueError(f"negative tensor extent in {shapes}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt header: {exc!r}: {path}") from exc
    surplus = len(raw) - offset - 4 * sum(prod(shape) for shape in shapes)
    if surplus < 0:
        raise CheckpointError(f"truncated payload: {path}")
    if surplus > 0:
        raise CheckpointError(f"{surplus} trailing bytes after the payload: {path}")
    tensors = []
    for shape in shapes:
        tensors.append(np.frombuffer(raw, "<f4", prod(shape), offset).reshape(shape).copy())
        offset += 4 * prod(shape)
    return decoded, tensors


def write_json(path, doc):
    """Write ``doc`` indented, with sorted keys and a final newline."""
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fmt_float(v) -> str:
    """The CSV text of a float: its shortest round-trip repr."""
    return repr(float(v))


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` in ``csv``'s default dialect, each
    float cell as ``fmt_float`` writes it."""
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
