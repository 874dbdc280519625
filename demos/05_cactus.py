#!/usr/bin/env python3
"""CactusNet routing and growth.

Derives the two thresholds from reference baselines, replays a stream
of mocked applicability values through the three-way verdict, and
shows branch growth with consolidation: a burst of fifty novel inputs
produces one branch, not fifty.
"""

import numpy as np

from cactusnet.cactus import (GrowthConfig, build_tree, classify_or_flag,
                              grow, replay_log)
from cactusnet.config import compute_thresholds
from cactusnet.nn import LayerSpec, Network

# Reference baselines: upper q from the known subset, y1/y2 from the
# unknown subsets; tau_n = q - (q - y_n) / 3.
t = compute_thresholds(q=0.986, y1=0.983, y2=0.923)
print(f"tau1={t.tau1:.3f} (known boundary), tau2={t.tau2:.3f} (branch boundary)")


def sentinel(_):
    raise AssertionError("mocked runs never consult the predictor")


def make_tree():
    net = Network.build(
        [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(8), LayerSpec.relu(),
         LayerSpec.dense(3), LayerSpec.softmax()],
        (10, 10, 1), seed=2)
    return build_tree(net, [2, 5], predictors={2: sentinel, 5: sentinel},
                      thresholds=t, labels=(0, 1, 2), decision_depth=1)


blank = np.zeros((10, 10, 1), dtype=np.float32)
print("\nthree-way verdicts for mocked applicabilities:")
for app in (0.99, 0.975, 0.985, 0.95):
    d = classify_or_flag(make_tree(), blank, mock_app=app)
    label = f" -> label {d.label}" if d.label is not None else ""
    print(f"  app={app:.3f}: {d.verdict.value}{label}")

# Growth: a homogeneous novel burst consolidates into one branch.
tree = make_tree()
stream = [(blank, 0.95)] * 50
log = grow(tree, stream, GrowthConfig(max_branches_per_node=4,
                                      consolidation_window=25, seed=3))
created = [d.branch_created for d in log.decisions if d.branch_created]
print(f"\n50 below-threshold inputs -> branches created: {created}")
print("verdict counts:", {v.value: c for v, c in log.verdict_counts().items()})

replayed = replay_log(make_tree(), log)
print("replay reconstructs the same topology:",
      replayed.topology() == tree.topology())
