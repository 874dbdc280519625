"""Experiment manifests: the three class subsets, probe set, and splits.

A manifest pins which classes the base network is trained on
(objective known), which same-family classes it never sees (objective
unknown), which other-family classes it never sees (nonobjective
unknown), and the k-class probe set used to approximate "all possible
inputs".  Probe classes must never appear in base training.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ManifestError
from ..fileio import write_json
from ..seeding import rng_for
from .synthetic import MANUFACTURED, ORGANIC, SyntheticDataset


class SubsetLabel(Enum):
    OBJECTIVE_KNOWN = "objective_known"
    OBJECTIVE_UNKNOWN = "objective_unknown"
    NONOBJECTIVE_UNKNOWN = "nonobjective_unknown"


@dataclass(frozen=True)
class ClassEntry:
    class_id: int
    class_name: str
    subset: SubsetLabel
    source: str = ""


@dataclass(frozen=True)
class DatasetManifest:
    objective_name: str
    classes: tuple
    probe_set: tuple
    k: int
    train_fraction: float
    seed: int

    def __post_init__(self):
        self.validate()

    def validate(self):
        ids = [c.class_id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate class ids in manifest: {ids}")
        by_id = {c.class_id: c for c in self.classes}
        if len(self.probe_set) != self.k:
            raise ManifestError(
                f"probe set has {len(self.probe_set)} classes, k={self.k}")
        for cid in self.probe_set:
            if cid not in by_id:
                raise ManifestError(f"probe class {cid} not in manifest")
            if by_id[cid].subset is SubsetLabel.OBJECTIVE_KNOWN:
                raise ManifestError(
                    f"probe class {cid} is objective-known; probes must come "
                    "from classes the base network was never trained on")
        if not 0.0 < self.train_fraction < 1.0:
            raise ManifestError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")

    def entry(self, class_id: int) -> ClassEntry:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        raise ManifestError(f"class {class_id} not in manifest")

    @property
    def known_ids(self):
        return [c.class_id for c in self.classes
                if c.subset is SubsetLabel.OBJECTIVE_KNOWN]

    @property
    def measured_ids(self):
        """Classes whose applicability is measured: everything not a probe."""
        probe = set(self.probe_set)
        return [c.class_id for c in self.classes if c.class_id not in probe]

    # -- JSON persistence ---------------------------------------------
    def to_dict(self) -> dict:
        return {
            "objective_name": self.objective_name,
            "classes": [{"class_id": c.class_id, "class_name": c.class_name,
                         "subset": c.subset.value, "source": c.source}
                        for c in self.classes],
            "probe_set": list(self.probe_set),
            "k": self.k,
            "train_fraction": self.train_fraction,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "DatasetManifest":
        classes = tuple(ClassEntry(c["class_id"], c["class_name"],
                                   SubsetLabel(c["subset"]), c.get("source", ""))
                        for c in d["classes"])
        return DatasetManifest(d["objective_name"], classes,
                               tuple(d["probe_set"]), d["k"],
                               d["train_fraction"], d["seed"])

    def save(self, path):
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "DatasetManifest":
        """The manifest at ``path``; a file that is not one raises
        ``ManifestError`` naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                return DatasetManifest.from_dict(json.load(fh))
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"{path} is not a manifest: {exc!r}") from exc


def sample_probe_set(classes, k, seed):
    """Draw a balanced probe set from the non-known classes.

    ceil(k/2) classes come from objective-unknown and floor(k/2) from
    nonobjective-unknown; deterministic given ``seed``.  ``classes`` is
    an iterable of class entries.
    """
    pools = {}
    for subset in (SubsetLabel.OBJECTIVE_UNKNOWN, SubsetLabel.NONOBJECTIVE_UNKNOWN):
        pools[subset] = sorted(c.class_id for c in classes if c.subset is subset)
    need_obj = math.ceil(k / 2)
    need_non = k // 2
    if len(pools[SubsetLabel.OBJECTIVE_UNKNOWN]) < need_obj or \
            len(pools[SubsetLabel.NONOBJECTIVE_UNKNOWN]) < need_non:
        raise ManifestError(
            f"cannot draw a balanced probe set of k={k}: "
            f"{len(pools[SubsetLabel.OBJECTIVE_UNKNOWN])} objective-unknown and "
            f"{len(pools[SubsetLabel.NONOBJECTIVE_UNKNOWN])} nonobjective-unknown "
            "classes available")
    rng = rng_for(seed, 0xB0B)
    picked = list(rng.choice(pools[SubsetLabel.OBJECTIVE_UNKNOWN], need_obj,
                             replace=False))
    picked += list(rng.choice(pools[SubsetLabel.NONOBJECTIVE_UNKNOWN], need_non,
                              replace=False))
    return sorted(int(c) for c in picked)


# ---------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSplit:
    entry: ClassEntry
    train: np.ndarray
    test: np.ndarray


class SplitStore:
    """Per-class train/test images, read-only after construction."""

    def __init__(self, splits: dict):
        self._splits = dict(splits)

    @property
    def class_ids(self):
        return sorted(self._splits)

    def entry(self, class_id) -> ClassEntry:
        return self._splits[class_id].entry

    def split(self, class_id):
        """(train, test) indices of the class's images in its arrays, as
        ``ClassImages.split`` gives them."""
        s = self._splits[class_id]
        return np.arange(len(s.train)), np.arange(len(s.test))

    def train_images(self, class_id) -> np.ndarray:
        return self._splits[class_id].train

    def test_images(self, class_id) -> np.ndarray:
        return self._splits[class_id].test


def split_indices(manifest: DatasetManifest, class_id, n):
    """(train, test) indices of a class of ``n`` images, each in split
    order.  The shuffle is seeded from (manifest seed, class id), so a
    manifest fully determines a class's split, whichever other classes
    are split with it; a split left empty raises ``ManifestError``."""
    order = rng_for(manifest.seed, 0x5417, class_id).permutation(n)
    n_train = int(n * manifest.train_fraction)
    if n_train == 0 or n_train == n:
        raise ManifestError(
            f"class {class_id}: {n} images with fraction "
            f"{manifest.train_fraction} leaves an empty split")
    return order[:n_train], order[n_train:]


class ClassImages:
    """``SplitStore``'s interface over a corpus, rendering on demand.

    ``sizes`` maps each class id of the corpus to its image count, and
    ``render(class_id, indices)`` returns those images of the class, in
    that order.  Each ``train_images``/``test_images`` call renders its
    split and keeps nothing, so a caller holds only the images it is
    using.  The manifest classes ``class_ids`` (default: every one) are
    checked at construction: one the corpus lacks, or whose split would
    be empty, raises ``ManifestError`` before any image is rendered.
    """

    def __init__(self, manifest: DatasetManifest, sizes, render, class_ids=None):
        entries = (manifest.classes if class_ids is None
                   else [manifest.entry(c) for c in class_ids])
        missing = [c.class_id for c in entries if c.class_id not in sizes]
        if missing:
            raise ManifestError(f"no image source for class ids {missing}")
        self._entries = {c.class_id: c for c in entries}
        self._splits = {c.class_id: split_indices(manifest, c.class_id,
                                                  sizes[c.class_id])
                        for c in entries}
        self.render = render

    @property
    def class_ids(self):
        return sorted(self._entries)

    def entry(self, class_id) -> ClassEntry:
        return self._entries[class_id]

    def split(self, class_id):
        """(train, test) indices of the class, each in split order."""
        return self._splits[class_id]

    def train_images(self, class_id) -> np.ndarray:
        return self.render(class_id, self._splits[class_id][0])

    def test_images(self, class_id) -> np.ndarray:
        return self.render(class_id, self._splits[class_id][1])


def build_splits(manifest: DatasetManifest, sources, class_ids=None) -> SplitStore:
    """Split the manifest classes ``class_ids`` (default: every one) into
    disjoint train/test pools (``split_indices``), held in memory.

    ``sources`` maps class_id to an image stack.
    """
    sources = {cid: np.asarray(images) for cid, images in sources.items()}
    source = ClassImages(manifest, {cid: len(x) for cid, x in sources.items()},
                         lambda cid, indices: sources[cid][indices], class_ids)
    return SplitStore({cid: ClassSplit(source.entry(cid), source.train_images(cid),
                                       source.test_images(cid))
                       for cid in source.class_ids})


def synthetic_manifest(ds: SyntheticDataset, num_known, num_objective_unknown,
                       num_nonobjective_unknown, k, train_fraction, seed):
    """Manifest over a synthetic dataset mirroring the three-subset design.

    The first organic classes become the known set, the next the
    measured objective-unknown set; probe classes are drawn from the
    remaining pools, balanced across the two families.
    """
    if min(num_known, num_objective_unknown, num_nonobjective_unknown, k) < 0:
        raise ManifestError(
            f"a synthetic dataset's class and probe counts must be 0 or more, got "
            f"num_known={num_known}, num_objective_unknown={num_objective_unknown}, "
            f"num_nonobjective_unknown={num_nonobjective_unknown}, k={k}")
    organic = ds.ids_for(ORGANIC)
    manu = ds.ids_for(MANUFACTURED)
    need_organic = num_known + num_objective_unknown + math.ceil(k / 2)
    need_manu = num_nonobjective_unknown + k // 2
    if len(organic) < need_organic or len(manu) < need_manu:
        raise ManifestError(
            f"dataset too small: need {need_organic} organic / {need_manu} "
            f"manufactured classes, have {len(organic)} / {len(manu)}")

    def entries(ids, subset):
        return [ClassEntry(cid, ds.name(cid), subset, f"synthetic:{ds.name(cid)}")
                for cid in ids]

    known = entries(organic[:num_known], SubsetLabel.OBJECTIVE_KNOWN)
    measured_obj = entries(
        organic[num_known:num_known + num_objective_unknown],
        SubsetLabel.OBJECTIVE_UNKNOWN)
    measured_non = entries(manu[:num_nonobjective_unknown],
                           SubsetLabel.NONOBJECTIVE_UNKNOWN)
    pool_obj = entries(organic[num_known + num_objective_unknown:],
                       SubsetLabel.OBJECTIVE_UNKNOWN)
    pool_non = entries(manu[num_nonobjective_unknown:],
                       SubsetLabel.NONOBJECTIVE_UNKNOWN)

    probe = sample_probe_set(pool_obj + pool_non, k, seed)
    probe_set = set(probe)
    used = known + measured_obj + measured_non + \
        [c for c in pool_obj + pool_non if c.class_id in probe_set]
    return DatasetManifest("organic-textures", tuple(used), tuple(probe),
                           k, train_fraction, seed)
