"""Reader/writer for the IDX binary format used by small image corpora.

Only the two unsigned-byte layouts needed here are supported: image
cubes (magic 0x00000803) and label vectors (magic 0x00000801), both
big-endian.  Images come back as float32 in [0, 1] with an explicit
single channel axis.
"""

import os
import struct
from math import prod

import numpy as np

from ..errors import DataError
from ..fileio import atomic_open

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def load_idx(path):
    """Load an IDX file.

    Image files yield ``[n, rows, cols, 1]`` float32 scaled to [0, 1];
    label files yield an int64 vector.  The declared dims are checked
    against the file's size before the payload is read into one array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 4:
            raise DataError(f"IDX file too short for a magic number: {path}")
        (magic,) = struct.unpack(">i", fh.read(4))
        if magic == IMAGE_MAGIC:
            ndim = 3
        elif magic == LABEL_MAGIC:
            ndim = 1
        else:
            raise DataError(f"unknown IDX magic 0x{magic:08x} in {path}")
        header_end = 4 + 4 * ndim
        if size < header_end:
            raise DataError(f"IDX header truncated: {path}")
        dims = struct.unpack(f">{ndim}i", fh.read(4 * ndim))
        if any(d < 0 for d in dims):
            raise DataError(f"IDX dims {dims} include a negative extent: {path}")
        expected = prod(dims)
        if size - header_end != expected:
            raise DataError(
                f"IDX payload length {size - header_end} does not match declared "
                f"dims {dims} ({expected} bytes): {path}")
        data = np.empty(expected, dtype=np.uint8)
        if fh.readinto(data) != expected:
            raise DataError(f"IDX payload truncated while reading: {path}")
    if magic == LABEL_MAGIC:
        return data.astype(np.int64)
    images = data.reshape(dims).astype(np.float32)
    np.divide(images, 255.0, out=images)
    return images[..., None]


def write_idx_images(path, images):
    """Write ``[n, rows, cols]`` (or ``[n, rows, cols, 1]``) u8 images."""
    arr = np.asarray(images)
    if arr.ndim == 4 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    if arr.ndim != 3:
        raise DataError(f"expected [n, rows, cols] images, got {arr.shape}")
    arr = arr.astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack(">i", IMAGE_MAGIC))
        fh.write(struct.pack(">3i", *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path, labels):
    arr = np.asarray(labels).astype(np.uint8)
    if arr.ndim != 1:
        raise DataError(f"expected a label vector, got {arr.shape}")
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack(">i", LABEL_MAGIC))
        fh.write(struct.pack(">i", arr.shape[0]))
        fh.write(arr.tobytes())
