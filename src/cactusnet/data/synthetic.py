"""Two-family synthetic image corpus.

Stands in for a "natural vs man-made" split at desk scale: the organic
family draws soft blob fields with a per-class layout, the manufactured
family draws stripe/grid motifs with per-class period and orientation
and a random phase per image.  Classes within a family differ by their
parameter draws; every draw is a pure function of (seed, family, class,
image), so a dataset is reproducible from its seed alone.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ..errors import DataError
from ..fileio import read_container, write_container
from ..seeding import rng_for

DATASET_MAGIC = b"CNLDATA1"

ORGANIC = "organic"
MANUFACTURED = "manufactured"

# images rendered per array pass: bounds the renderers' float64 temporaries
# (every step is per image, so the chunking never changes a byte)
RENDER_CHUNK = 64


@dataclass(frozen=True)
class SyntheticClass:
    class_id: int
    name: str
    family: str


@dataclass
class SyntheticDataset:
    classes: tuple        # every class of the corpus
    images: dict          # class_id -> [per_class, side, side, 1] float32,
                          # for each class rendered
    image_side: int
    per_class: int
    seed: int

    def family(self, class_id: int) -> str:
        return self._by_id[class_id].family

    def name(self, class_id: int) -> str:
        return self._by_id[class_id].name

    @cached_property
    def _by_id(self):
        return {c.class_id: c for c in self.classes}

    def ids_for(self, family: str):
        return [c.class_id for c in self.classes if c.family == family]


def _organic_class_params(seed, index):
    # every class has the same blob count and scale statistics, so
    # classes differ only in layout; unseen layouts are then genuinely
    # confusable under features tuned to other layouts
    rng = rng_for(seed, 0, index)
    n_blobs = 5
    centers = rng.uniform(0.15, 0.85, size=(n_blobs, 2))
    sigmas = rng.uniform(0.09, 0.15, size=n_blobs)
    amps = rng.uniform(0.6, 1.0, size=n_blobs)
    return centers, sigmas, amps


def _organic_images(params, rngs, side):
    """Organic images of one class, one per generator in ``rngs``: ``[n,
    side, side]``, rendered in one array pass."""
    # heavy per-image jitter: a network trained on a class learns to see
    # through it, while frozen features transferred to an unseen class
    # do not, which is what separates the known and unknown curves
    centers, sigmas, amps = params
    draws = [(rng.normal(0.0, 0.065, size=centers.shape),
              rng.uniform(0.85, 1.15, size=sigmas.shape),
              rng.uniform(0.88, 1.12, size=amps.shape),
              rng.uniform(0.0, 0.05, size=(side, side))) for rng in rngs]
    jitter, scale, gain, noise = (np.stack(d) for d in zip(*draws))
    centers = (centers + jitter)[..., None, None]      # [n, blob, 2, 1, 1]
    sigmas = (sigmas * scale)[..., None, None]         # [n, blob, 1, 1]
    amps = (amps * gain)[..., None, None]
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    field = np.zeros((len(rngs), side, side))
    for b in range(centers.shape[1]):
        cy, cx, s = centers[:, b, 0], centers[:, b, 1], sigmas[:, b]
        field += amps[:, b] * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s * s))
    field = np.clip(field, 0.0, 1.0)
    field += noise
    return np.clip(field, 0.0, 1.0)


def _manufactured_family_params(seed, count):
    rng = rng_for(seed, 1)
    periods = np.linspace(2.8, 6.5, count)[rng.permutation(count)]
    orients = (np.arange(count) * 180.0 / count)[rng.permutation(count)]
    motifs = rng.integers(0, 2, size=count)  # 0 stripes, 1 grid
    duties = rng.uniform(0.45, 0.55, size=count)
    return periods, orients, motifs, duties


def _stripe_field(side, period, theta_deg, phases):
    """``[n, side, side]`` stripes, one per phase in ``phases``."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    theta = np.deg2rad(theta_deg)
    u = xx * np.cos(theta) + yy * np.sin(theta)
    return 0.5 * (1.0 + np.sin(2 * np.pi * u / period + phases[:, None, None]))


def _manufactured_images(period, orient, motif, duty, rngs, side):
    """Manufactured images of one class, one per generator in ``rngs``."""
    draws = [(rng.uniform(0.0, 2 * np.pi),
              rng.uniform(0.0, 2 * np.pi) if motif == 1 else 0.0,
              rng.uniform(0.0, 0.05, size=(side, side))) for rng in rngs]
    phases, phases2, noise = (np.stack(d) for d in zip(*draws))
    field = _stripe_field(side, period, orient, phases)
    if motif == 1:
        field = np.maximum(field, _stripe_field(side, period, orient + 90.0, phases2))
    img = 0.15 + 0.7 / (1.0 + np.exp(-(field - duty) * 10.0))
    img += noise
    return np.clip(img, 0.0, 1.0)


def render_class(num_classes_per_family: int, image_side: int, seed: int,
                 class_id: int, indices) -> np.ndarray:
    """Images ``indices`` of class ``class_id``, in that order: ``[len(indices),
    side, side, 1]`` float32.

    Image ``i`` of class ``c`` draws from ``rng_for(seed, family, c, 1000 +
    i)`` alone, and each array pass over ``RENDER_CHUNK`` of them computes
    every image by itself, so any index list gives bitwise the rows of
    the whole class rendered and then indexed.
    """
    n = num_classes_per_family
    if class_id < n:
        family, c = 0, class_id
        draw = partial(_organic_images, _organic_class_params(seed, c))
    else:
        family, c = 1, class_id - n
        periods, orients, motifs, duties = _manufactured_family_params(seed, n)
        draw = partial(_manufactured_images, periods[c], orients[c], int(motifs[c]),
                       duties[c])
    stack = np.empty((len(indices), image_side, image_side, 1), np.float32)
    for lo in range(0, len(indices), RENDER_CHUNK):
        rngs = [rng_for(seed, family, c, 1000 + int(i))
                for i in indices[lo:lo + RENDER_CHUNK]]
        stack[lo:lo + len(rngs), ..., 0] = draw(rngs, image_side)
    return stack


def generate_synthetic(num_classes_per_family: int, per_class: int,
                       image_side: int, seed: int,
                       class_ids=None) -> SyntheticDataset:
    """Generate both families; deterministic given ``seed``.

    Each class is rendered whole by ``render_class``.  With
    ``class_ids`` only those classes are rendered (``()`` for names
    only), each bitwise as in the full corpus; ``classes`` always lists
    every class.
    """
    if num_classes_per_family < 1 or per_class < 1:
        raise DataError("class and image counts must be >= 1")
    if image_side < 8:
        raise DataError(f"image_side {image_side} is too small (minimum 8)")
    n = num_classes_per_family
    classes = tuple(
        [SyntheticClass(c, f"{ORGANIC}_{c:02d}", ORGANIC) for c in range(n)]
        + [SyntheticClass(n + c, f"{MANUFACTURED}_{c:02d}", MANUFACTURED)
           for c in range(n)])
    wanted = set(range(2 * n) if class_ids is None else class_ids)
    images = {c.class_id: render_class(n, image_side, seed, c.class_id,
                                       range(per_class))
              for c in classes if c.class_id in wanted}
    return SyntheticDataset(classes, images, image_side, per_class, seed)


# ---------------------------------------------------------------------
# Binary cache (a cactusnet.fileio container, one tensor per class)
# ---------------------------------------------------------------------

def save_dataset(ds: SyntheticDataset, path):
    """Write the rendered classes of ``ds``."""
    classes = [c for c in ds.classes if c.class_id in ds.images]
    header = {
        "classes": [{"class_id": c.class_id, "name": c.name, "family": c.family}
                    for c in classes],
        "image_side": ds.image_side,
        "per_class": ds.per_class,
        "seed": ds.seed,
    }
    write_container(path, DATASET_MAGIC, header,
                    [ds.images[c.class_id] for c in classes])


def _parse_header(header):
    side, per_class = header["image_side"], header["per_class"]
    classes = tuple(SyntheticClass(c["class_id"], c["name"], c["family"])
                    for c in header["classes"])
    return (classes, side, per_class, header["seed"]), \
        [(per_class, side, side, 1)] * len(classes)


def load_dataset(path) -> SyntheticDataset:
    (classes, side, per_class, seed), stacks = read_container(
        path, DATASET_MAGIC, _parse_header)
    images = {c.class_id: stack for c, stack in zip(classes, stacks)}
    return SyntheticDataset(classes, images, side, per_class, seed)
