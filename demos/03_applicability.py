#!/usr/bin/env python3
"""Freeze-and-finetune applicability at desk scale (small edition).

Trains a base classifier on two known classes, then measures how well
features frozen at each tap separate every measured class from a probe
set, aggregates per-(class, layer) applicabilities, and averages them
per subset.  Also shows the chance-level self-control.
"""

import numpy as np

from cactusnet.applicability import layer_sweep, pair_separability
from cactusnet.data import build_splits, generate_synthetic, synthetic_manifest
from cactusnet.nn import LayerSpec, Network, TrainConfig, accuracy, train_classifier
from cactusnet.table import subset_average

ds = generate_synthetic(num_classes_per_family=4, per_class=120,
                        image_side=16, seed=21)
manifest = synthetic_manifest(ds, num_known=2, num_objective_unknown=1,
                              num_nonobjective_unknown=1, k=2,
                              train_fraction=2 / 3, seed=21)
splits = build_splits(manifest, ds.images)

specs = [LayerSpec.conv(6, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(24), LayerSpec.relu(),
         LayerSpec.dense(2), LayerSpec.softmax()]
taps = [2, 5]

known = manifest.known_ids
train = np.concatenate([splits.train_images(c) for c in known])
labels = np.concatenate([[i] * splits.train_images(c).shape[0]
                         for i, c in enumerate(known)])
net = Network.build(specs, (16, 16, 1), seed=5)
net, _ = train_classifier(net, train, labels, TrainConfig(0.08, 12, 16, seed=5))
test = np.concatenate([splits.test_images(c) for c in known])
tlabels = np.concatenate([[i] * splits.test_images(c).shape[0]
                          for i, c in enumerate(known)])
print(f"base test accuracy on known classes: {accuracy(net, test, tlabels):.3f}")

result = layer_sweep(net, manifest.measured_ids, manifest.probe_set, splits,
                     TrainConfig(0.05, 3, 16, seed=0), taps, master_seed=21)
print(f"\n{len(result.records)} one-vs-one jobs "
      f"({len(manifest.measured_ids)} classes x {manifest.k} probes x "
      f"{len(taps)} layers), {len(result.failures)} failures")
print("\napplicability per (class, layer):")
for cid in manifest.measured_ids:
    entry = manifest.entry(cid)
    row = [f"{result.table.app(cid, t):.3f}" for t in taps]
    print(f"  {entry.class_name:<18} {entry.subset.value:<22} {row}")

print("\nsubset mean curves:")
for (subset, layer), mean in subset_average(result.table).items():
    print(f"  {subset.value:<22} layer {layer}: {mean:.4f}")

x = known[0]
rec = pair_separability(net, taps[0], x, x, splits, TrainConfig(0.05, 3, 16, 9))
print(f"\nself-control (class {x} vs itself): {rec.xi:.3f} "
      "(chance level, by construction)")
