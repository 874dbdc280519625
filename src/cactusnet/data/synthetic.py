"""Two-family synthetic image corpus.

Stands in for a "natural vs man-made" split at desk scale: the organic
family draws soft blob fields with a per-class layout, the manufactured
family draws stripe/grid motifs with per-class period and orientation
and a random phase per image.  Classes within a family differ by their
parameter draws; every draw is a pure function of (seed, family, class,
image), so a dataset is reproducible from its seed alone.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..fileio import read_container, write_container
from ..seeding import rng_for

DATASET_MAGIC = b"CNLDATA1"

ORGANIC = "organic"
MANUFACTURED = "manufactured"


@dataclass(frozen=True)
class SyntheticClass:
    class_id: int
    name: str
    family: str


@dataclass
class SyntheticDataset:
    classes: tuple
    images: dict          # class_id -> [per_class, side, side, 1] float32
    image_side: int
    per_class: int
    seed: int

    def family(self, class_id: int) -> str:
        return self._by_id[class_id].family

    def name(self, class_id: int) -> str:
        return self._by_id[class_id].name

    @property
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


def _organic_image(params, rng, side):
    # heavy per-image jitter: a network trained on a class learns to see
    # through it, while frozen features transferred to an unseen class
    # do not, which is what separates the known and unknown curves
    centers, sigmas, amps = params
    centers = centers + rng.normal(0.0, 0.065, size=centers.shape)
    sigmas = sigmas * rng.uniform(0.85, 1.15, size=sigmas.shape)
    amps = amps * rng.uniform(0.88, 1.12, size=amps.shape)
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    field = np.zeros((side, side))
    for (cy, cx), s, a in zip(centers, sigmas, amps):
        field += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s * s))
    field = np.clip(field, 0.0, 1.0)
    field += rng.uniform(0.0, 0.05, size=field.shape)
    return np.clip(field, 0.0, 1.0)


def _manufactured_family_params(seed, count):
    rng = rng_for(seed, 1)
    periods = np.linspace(2.8, 6.5, count)[rng.permutation(count)]
    orients = (np.arange(count) * 180.0 / count)[rng.permutation(count)]
    motifs = rng.integers(0, 2, size=count)  # 0 stripes, 1 grid
    duties = rng.uniform(0.45, 0.55, size=count)
    return periods, orients, motifs, duties


def _stripe_field(side, period, theta_deg, phase):
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    theta = np.deg2rad(theta_deg)
    u = xx * np.cos(theta) + yy * np.sin(theta)
    return 0.5 * (1.0 + np.sin(2 * np.pi * u / period + phase))


def _manufactured_image(period, orient, motif, duty, rng, side):
    phase = rng.uniform(0.0, 2 * np.pi)
    field = _stripe_field(side, period, orient, phase)
    if motif == 1:
        phase2 = rng.uniform(0.0, 2 * np.pi)
        field = np.maximum(field, _stripe_field(side, period, orient + 90.0, phase2))
    img = 0.15 + 0.7 / (1.0 + np.exp(-(field - duty) * 10.0))
    img += rng.uniform(0.0, 0.05, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(num_classes_per_family: int, per_class: int,
                       image_side: int, seed: int) -> SyntheticDataset:
    """Generate both families; deterministic given ``seed``."""
    if num_classes_per_family < 1 or per_class < 1:
        raise DataError("class and image counts must be >= 1")
    if image_side < 8:
        raise DataError(f"image_side {image_side} is too small (minimum 8)")

    classes = []
    images = {}
    n = num_classes_per_family
    for c in range(n):
        params = _organic_class_params(seed, c)
        stack = np.empty((per_class, image_side, image_side, 1), dtype=np.float32)
        for i in range(per_class):
            rng = rng_for(seed, 0, c, 1000 + i)
            stack[i, :, :, 0] = _organic_image(params, rng, image_side)
        classes.append(SyntheticClass(c, f"{ORGANIC}_{c:02d}", ORGANIC))
        images[c] = stack

    periods, orients, motifs, duties = _manufactured_family_params(seed, n)
    for c in range(n):
        cid = n + c
        stack = np.empty((per_class, image_side, image_side, 1), dtype=np.float32)
        for i in range(per_class):
            rng = rng_for(seed, 1, c, 1000 + i)
            stack[i, :, :, 0] = _manufactured_image(
                periods[c], orients[c], int(motifs[c]), duties[c], rng, image_side)
        classes.append(SyntheticClass(cid, f"{MANUFACTURED}_{c:02d}", MANUFACTURED))
        images[cid] = stack

    return SyntheticDataset(tuple(classes), images, image_side, per_class, seed)


# ---------------------------------------------------------------------
# Binary cache (a cactusnet.fileio container, one tensor per class)
# ---------------------------------------------------------------------

def save_dataset(ds: SyntheticDataset, path):
    header = {
        "classes": [{"class_id": c.class_id, "name": c.name, "family": c.family}
                    for c in ds.classes],
        "image_side": ds.image_side,
        "per_class": ds.per_class,
        "seed": ds.seed,
    }
    write_container(path, DATASET_MAGIC, header,
                    [ds.images[c.class_id] for c in ds.classes])


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
