#!/usr/bin/env python3
"""Per-layer applicability predictors.

Every image of a class is labeled with that class's measured
applicability at a layer; a small regressor then learns to read the
applicability off the activations alone, including for a class it
never saw during training.
"""

import numpy as np

from cactusnet.applicability import layer_sweep
from cactusnet.data import build_splits, generate_synthetic, synthetic_manifest
from cactusnet.nn import LayerSpec, Network, TrainConfig, forward, train_classifier
from cactusnet.predictor import (build_predictor, evaluate_predictor,
                                 predict_applicability, train_predictor)

ds = generate_synthetic(4, 120, 16, seed=33)
manifest = synthetic_manifest(ds, 2, 1, 1, k=2, train_fraction=2 / 3, seed=33)
splits = build_splits(manifest, ds.images)

specs = [LayerSpec.conv(6, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(24), LayerSpec.relu(),
         LayerSpec.dense(2), LayerSpec.softmax()]
tap = 5  # the dense representation

known = manifest.known_ids
train = np.concatenate([splits.train_images(c) for c in known])
labels = np.concatenate([[i] * splits.train_images(c).shape[0]
                         for i, c in enumerate(known)])
net = Network.build(specs, (16, 16, 1), seed=5)
net, _ = train_classifier(net, train, labels, TrainConfig(0.08, 12, 16, seed=5))

sweep = layer_sweep(net, manifest.measured_ids, manifest.probe_set, splits,
                    TrainConfig(0.05, 3, 16, seed=0), [tap], master_seed=33)

# plan selection depends on the tap shape
plan = build_predictor(net.shapes[tap])
print(f"tap {tap} shape {net.shapes[tap]} -> "
      f"{' '.join(s.kind for s in plan)}")

# hold out the measured objective-unknown class; the predictor still
# trains on both high-App (organic) and low-App (manufactured) examples
from cactusnet.data import SubsetLabel
held_out = next(c for c in manifest.measured_ids
                if manifest.entry(c).subset is SubsetLabel.OBJECTIVE_UNKNOWN)
train_ids = [c for c in manifest.measured_ids if c != held_out]
samples = []
for cid in train_ids:
    acts = forward(net, splits.train_images(cid))[tap]
    target = sweep.table.app(cid, tap)
    samples.extend((acts[i], target) for i in range(acts.shape[0]))

model, report = train_predictor(net.shapes[tap], samples,
                                TrainConfig(0.02, 30, 16, 3),
                                layer_index=tap, train_class_ids=train_ids)
print(f"trained on {report.n_samples} samples, "
      f"final train MSE {report.final_train_mse:.5f}")

acts = forward(net, splits.test_images(held_out))[tap]
ev = evaluate_predictor(model, {held_out: (acts, sweep.table.app(held_out, tap))})
row = ev.rows[0]
print(f"held-out class {held_out}: actual {row.actual_app:.4f}, "
      f"mean predicted {row.mean_predicted:.4f}, |err| {row.abs_err:.4f}")

one = predict_applicability(model, acts[0])
print(f"single-image prediction (clamped to [0, 1]): {one:.4f}")
