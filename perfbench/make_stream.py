"""Write the input stream of the ``stream`` workload.

Usage: python3 perfbench/make_stream.py CONFIG SEED POOL PER_CLASS

Draws POOL unseen images of every synthetic class of CONFIG's corpus
(image indices from the manifest's ``per_class`` on, which no phase ever
trained or measured on).  SEED then orders the classes and picks
PER_CLASS images of each class's pool.  The result is written as a
dataset cache ``stream.bin`` beside CONFIG, with its classes renumbered
in stream order, and ``stream.json`` points at it; ``cactus-run`` walks a
dataset cache class by class, so the inputs arrive in one burst per class.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from cactusnet.config import load_config  # noqa: E402
from cactusnet.data import SyntheticDataset, generate_synthetic, save_dataset  # noqa: E402
from cactusnet.data.synthetic import SyntheticClass  # noqa: E402


def main(config_path, seed, pool, per_class):
    cfg = load_config(config_path)
    d = cfg.dataset
    ds = generate_synthetic(d.classes_per_family, d.per_class + pool,
                            d.image_side, d.seed)
    rng = np.random.default_rng(seed % 2**63)
    classes, images = [], {}
    for new_id, old in enumerate(rng.permutation(len(ds.classes))):
        c = ds.classes[old]
        pick = np.sort(rng.choice(pool, per_class, replace=False))
        classes.append(SyntheticClass(new_id, c.name, c.family))
        images[new_id] = ds.images[c.class_id][d.per_class + pick]
    save_dataset(SyntheticDataset(tuple(classes), images, ds.image_side,
                                  per_class, ds.seed),
                 cfg.path("stream.bin"))
    with open(cfg.path("stream.json"), "w", encoding="utf-8") as fh:
        json.dump({"type": "dataset", "path": "stream.bin"}, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
