"""Acceptance suite: one test per criterion, at its stated tolerance.

Criteria 5-7 share a desk-scale experiment (5 known / 3 objective-
unknown / 3 nonobjective-unknown classes, k=6 probes, 4 tapped layers,
200/100 images per class) run once per session through the same runner
functions the CLI uses, with the BLAS thread pin the CLI applies.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion pass lines.
"""

import csv
import json
import math

import numpy as np
import pytest

from cactusnet import runner
from cactusnet.applicability import (SeparabilityRecord, class_applicability,
                                     pair_separability)
from cactusnet.cactus import (GrowthConfig, Thresholds, Verdict, build_tree,
                              compute_thresholds, decide, grow, replay_log)
from cactusnet.cli import pin_blas_threads
from cactusnet.config import config_from_dict, default_config_dict
from cactusnet.data import build_splits, generate_synthetic, synthetic_manifest
from cactusnet.nn import (LayerSpec, Network, TrainConfig, backward,
                          checkpoint_load, checkpoint_save, forward, predict,
                          replace_head, sgd_step)
from cactusnet.predictor import train_predictor
from cactusnet.seeding import derive_seed

from test_cli import run_full
from test_layers import (assert_grads_close, draw_kink_safe,
                         finite_difference_grads, small_net)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------
# Shared desk-scale experiment (criteria 5-7, 9, 11)
# ---------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    doc = default_config_dict()
    (base / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    cfg = config_from_dict(doc, base_dir=base)
    pin_blas_threads()  # score the bits the CLI writes
    runner.prepare(cfg)
    base_result = runner.run_train_base(cfg)
    # end-to-end smoke oracle for the base phase: a small CNN on the
    # known classes must clear 0.95 held-out accuracy
    assert base_result["test_accuracy"] >= 0.95, base_result
    runner.run_measure(cfg)
    runner.run_train_predictors(cfg)
    return {"base": base, "cfg": cfg, "doc": doc,
            "base_test_accuracy": base_result["test_accuracy"]}


def desk_curves(desk_env):
    rows = list(csv.DictReader(open(desk_env["cfg"].out_path / "subset_curves.csv")))
    curves = {}
    for r in rows:
        curves.setdefault(r["subset"], {})[int(r["layer"])] = float(r["mean_app"])
    return curves


# ---------------------------------------------------------------------
# 1. Threshold exactness
# ---------------------------------------------------------------------

def test_criterion_01_threshold_exactness():
    t = compute_thresholds(0.986, 0.983, 0.923)
    ok = abs(t.tau1 - 0.985) <= 1e-9 and abs(t.tau2 - 0.965) <= 1e-9
    report(1, ok, f"compute_thresholds(0.986, 0.983, 0.923) -> "
                  f"({t.tau1:.12f}, {t.tau2:.12f}), want (0.985, 0.965) @1e-9")


# ---------------------------------------------------------------------
# 2. Class-applicability mean against the printed reference row
# ---------------------------------------------------------------------

MOTH_ROW = (0.98, 0.932, 0.952, 0.964, 0.976, 0.972, 0.98, 0.952, 0.952, 0.932)


def test_criterion_02_mean_oracle():
    records = [SeparabilityRecord(1, 100 + j, 5, v, seed=j)
               for j, v in enumerate(MOTH_ROW)]
    app = class_applicability(records)
    oracle = math.fsum(MOTH_ROW) / len(MOTH_ROW)
    ok = abs(app - 0.9592) <= 1e-6 and abs(app - oracle) <= 1e-12
    report(2, ok, f"mean of 10 reference separabilities = {app:.7f}, "
                  f"want 0.9592 @1e-6 (oracle {oracle:.7f})")


# ---------------------------------------------------------------------
# 3. Gradient suite: every layer kind vs finite differences
# ---------------------------------------------------------------------

GRAD_ARCHS = {
    "conv_pool_dense_softmax": (
        [LayerSpec.conv(2, 2, stride=2), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(3), LayerSpec.softmax()],
        (8, 7, 1), "CrossEntropy"),
    "dense_mse": (
        [LayerSpec.dense(4), LayerSpec.relu(), LayerSpec.dense(2)],
        (5,), "MSE"),
}


def test_criterion_03_gradient_suite():
    checked = 0
    for name, (specs, shape, loss_kind) in GRAD_ARCHS.items():
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            net = small_net(specs, shape, seed=seed * 31 + 7)
            batch = draw_kink_safe(net, shape, rng)
            width = net.output_shape[0]
            if loss_kind == "CrossEntropy":
                targets = np.eye(width)[rng.integers(0, width, size=3)]
            else:
                targets = rng.standard_normal((3, width))
            analytic, _ = backward(net, batch, targets, loss_kind)
            numeric = finite_difference_grads(net, batch, targets, loss_kind)
            assert_grads_close(analytic, numeric, rtol=1e-3)
            checked += 1
    report(3, checked == 40,
           f"{checked}/40 finite-difference checks passed (rel err < 1e-3, "
           "step 1e-3, all six layer kinds, 20 seeds per architecture)")


# ---------------------------------------------------------------------
# 4. Freeze and head-replacement contracts
# ---------------------------------------------------------------------

def test_criterion_04_freeze_and_head_contract():
    specs = [LayerSpec.conv(4, 3, frozen=True), LayerSpec.relu(),
             LayerSpec.maxpool(2), LayerSpec.flatten(),
             LayerSpec.dense(8, frozen=True), LayerSpec.relu(),
             LayerSpec.dense(3), LayerSpec.softmax()]
    net = Network.build(specs, (8, 8, 1), seed=11)
    frozen_before = {i: (net.params[i]["W"].copy(), net.params[i]["b"].copy())
                     for i in (0, 4)}
    rng = np.random.default_rng(2)
    images = rng.random((16, 8, 8, 1), dtype=np.float32)
    targets = np.eye(3, dtype=np.float32)[rng.integers(0, 3, 16)]
    stepped = net
    for _ in range(10):
        grads, _ = backward(stepped, images, targets, "CrossEntropy")
        stepped = sgd_step(stepped, grads, TrainConfig(0.05, 1, 16, 0))
    frozen_ok = all(
        np.array_equal(stepped.params[i]["W"], frozen_before[i][0]) and
        np.array_equal(stepped.params[i]["b"], frozen_before[i][1])
        for i in (0, 4))

    swapped = replace_head(stepped, 2, seed=5)
    head_ok = all(swapped.params[i]["W"] is stepped.params[i]["W"]
                  for i in (0, 4)) and swapped.output_shape == (2,)
    report(4, frozen_ok and head_ok,
           "frozen layers bitwise unchanged over 10 SGD steps; replace_head "
           "preserved all earlier parameters bitwise")


# ---------------------------------------------------------------------
# 5. Desk-scale layer-by-layer subset curves
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_subset_curve_shape(desk):
    curves = desk_curves(desk)
    taps = sorted(curves["objective_known"])
    k = curves["objective_known"][taps[-1]]
    o = curves["objective_unknown"][taps[-1]]
    n = curves["nonobjective_unknown"][taps[-1]]
    n_first = curves["nonobjective_unknown"][taps[0]]
    ordering = k >= o >= n and (k - n) >= 0.02
    decline = n <= n_first
    report(5, ordering and decline,
           f"deepest layer means K={k:.4f} >= O={o:.4f} >= N={n:.4f} "
           f"(K-N={k - n:.4f} >= 0.02); nonobjective declines "
           f"{n_first:.4f} -> {n:.4f}")


# ---------------------------------------------------------------------
# 6. Self-control stays at chance for every layer
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_self_control(desk):
    cfg = desk["cfg"]
    net = checkpoint_load(cfg.out_path / "base.ckpt")
    ds = generate_synthetic(1, 1500, cfg.dataset.image_side, seed=101)
    manifest = synthetic_manifest(ds, 1, 0, 0, k=0,
                                  train_fraction=2.0 / 3.0, seed=101)
    splits = build_splits(manifest, ds.images)
    x = manifest.known_ids[0]
    values = {}
    for tap in cfg.taps:
        rec = pair_separability(
            net, tap, x, x, splits,
            cfg.train.pair.with_seed(derive_seed(cfg.master_seed, 0x5E1F, tap)))
        values[tap] = rec.xi
    ok = all(0.4 <= v <= 0.6 for v in values.values())
    report(6, ok, "self-control accuracies per layer: "
           + ", ".join(f"{t}: {v:.3f}" for t, v in values.items())
           + " (all within [0.4, 0.6])")


# ---------------------------------------------------------------------
# 7. Predictor fidelity and permutation control
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_predictor_fidelity(desk):
    cfg = desk["cfg"]
    rows = list(csv.DictReader(open(cfg.out_path / "predictor_eval.csv")))
    assert rows, "predictor evaluation is empty"
    worst = max(float(r["abs_err"]) for r in rows)
    fidelity_ok = worst <= 0.05

    # permutation control at the deepest tap: destroying the
    # activation-target association must not beat the variance baseline
    # by more than 10 percent on held-out data
    table, manifest = runner.load_table(cfg)
    net = checkpoint_load(cfg.out_path / "base.ckpt")
    splits = runner._splits(cfg, manifest)
    tap = max(cfg.taps)
    doc = json.loads((cfg.out_path / "predictor_summary.json").read_text())
    heldout = doc["heldout_classes"]
    train_ids = [c for c in manifest.measured_ids if c not in heldout]

    samples, train_targets = [], []
    for cid in train_ids:
        acts = forward(net, splits.train_images(cid))[tap]
        target = table.app(cid, tap)
        samples.extend((acts[i], target) for i in range(acts.shape[0]))
        train_targets.extend([target] * acts.shape[0])
    rng = np.random.default_rng(derive_seed(cfg.master_seed, 0x5FFF))
    shuffled = rng.permutation(len(samples))
    shuffled_samples = [(samples[i][0], samples[int(j)][1])
                        for i, j in enumerate(shuffled)]
    held_samples = []
    for cid in heldout:
        acts = forward(net, splits.test_images(cid))[tap]
        target = table.app(cid, tap)
        held_samples.extend((acts[i], target) for i in range(acts.shape[0]))

    budget = cfg.train.predictor.with_seed(derive_seed(cfg.master_seed, 0x5FFF, 1))
    _, rep = train_predictor(net.shapes[tap], shuffled_samples, budget,
                             heldout=held_samples, layer_index=tap,
                             train_class_ids=train_ids)
    mean_target = float(np.mean(train_targets))
    baseline = float(np.mean([(t - mean_target) ** 2 for _, t in held_samples]))
    control_ok = rep.heldout_mse >= 0.9 * baseline
    report(7, fidelity_ok and control_ok,
           f"worst |mean predicted - actual| = {worst:.4f} <= 0.05 over "
           f"{len(rows)} held-out (class, layer) cells; permutation control "
           f"held-out MSE {rep.heldout_mse:.5f} >= 0.9 x variance baseline "
           f"{baseline:.5f}")


# ---------------------------------------------------------------------
# 8. Verdict partition property
# ---------------------------------------------------------------------

def test_criterion_08_partition_property():
    rng = np.random.default_rng(88)
    boundary = decide(0.7, Thresholds(1, 0, 0, 0.7, 0.3))
    exact = 0
    for _ in range(10_000):
        t2, t1 = np.sort(rng.uniform(0, 1, size=2))
        app = float(rng.uniform(0, 1))
        t = Thresholds(1.0, 0.0, 0.0, float(t1), float(t2))
        arms = [app > t1, t2 < app <= t1, app <= t2]
        verdict = decide(app, t)
        expected = [Verdict.KNOWN, Verdict.OBJECTIVE_UNKNOWN,
                    Verdict.NONOBJECTIVE_UNKNOWN][arms.index(True)]
        if sum(arms) == 1 and verdict is expected:
            exact += 1
    ok = exact == 10_000 and boundary is Verdict.OBJECTIVE_UNKNOWN
    report(8, ok, f"{exact}/10000 random (App, tau1, tau2) triples fire "
                  "exactly one arm; App == tau1 yields objective-unknown")


# ---------------------------------------------------------------------
# 9. Regime replay through the cactus-run command path
# ---------------------------------------------------------------------

REGIME_APPS = [0.99, 0.99, 0.99, 0.99, 0.95, 0.99, 0.975, 0.975, 0.95]


@pytest.mark.slow
def test_criterion_09_regime_replay(desk):
    doc = dict(desk["doc"])
    doc["threshold_overrides"] = {"q": 0.986, "y1": 0.983, "y2": 0.923}
    cfg = config_from_dict(doc, base_dir=desk["base"])
    stream = desk["base"] / "regime_stream.json"
    stream.write_text(json.dumps({"type": "mock", "apps": REGIME_APPS}))
    result = runner.run_cactus(cfg, stream)
    got = result["verdicts"]
    want = {"known": 5, "objective_unknown": 2, "nonobjective_unknown": 2}
    report(9, got == want, f"verdict histogram {got} == {want}")


# ---------------------------------------------------------------------
# 10. Growth soundness
# ---------------------------------------------------------------------

def _never_called(_):
    raise AssertionError("predictor must not be consulted in mock mode")


def _mock_tree():
    net = Network.build(
        [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(8), LayerSpec.relu(),
         LayerSpec.dense(3), LayerSpec.softmax()],
        (10, 10, 1), seed=2)
    t = compute_thresholds(0.986, 0.983, 0.923)
    return build_tree(net, [2, 5],
                      predictors={2: _never_called, 5: _never_called},
                      thresholds=t, labels=(0, 1, 2), decision_depth=1)


def test_criterion_10_growth_soundness():
    tree = _mock_tree()
    x = np.random.default_rng(0).random((4, 10, 10, 1), dtype=np.float32)

    def trunk_out(t):
        act = forward(t.root.block, x)[-1]
        for node in t.trunk_chain()[1:]:
            act = forward(node.block, act)[-1]
        return act

    before = trunk_out(tree)
    stream = [(np.zeros((10, 10, 1), np.float32), 0.95)] * 50
    log = grow(tree, stream, GrowthConfig(max_branches_per_node=4,
                                          consolidation_window=25, seed=3))
    created = [d.branch_created for d in log.decisions
               if d.branch_created is not None]
    one_branch = created == [1] and len(log.decisions) == 50
    trunk_ok = np.array_equal(trunk_out(tree), before)
    replayed = replay_log(_mock_tree(), log)
    replay_ok = replayed.topology() == tree.topology()
    report(10, one_branch and trunk_ok and replay_ok,
           f"50 below-threshold inputs -> branches created {created} "
           "(exactly one, M=25); trunk outputs bitwise unchanged; "
           "log replay reconstructs the identical tree")


# ---------------------------------------------------------------------
# 11. Round trips and byte-identical reruns
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_round_trip_and_determinism(desk, tmp_path):
    cfg = desk["cfg"]
    net = checkpoint_load(cfg.out_path / "base.ckpt")
    path = tmp_path / "again.ckpt"
    checkpoint_save(net, path)
    again = checkpoint_load(path)
    probe = np.random.default_rng(1).random((8,) + cfg.input_shape,
                                            dtype=np.float32)
    roundtrip_ok = np.array_equal(predict(net, probe), predict(again, probe))

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_full(a)
    run_full(b)
    compared = ["out/base.ckpt", "out/records.csv", "out/applicability.csv",
                "out/subset_curves.csv", "out/predictor_summary.json",
                "out/growth_log.jsonl", "out/tree/tree.json",
                "out/report/curves.csv", "manifest.json"]
    diffs = [name for name in compared
             if (a / name).read_bytes() != (b / name).read_bytes()]
    report(11, roundtrip_ok and not diffs,
           "checkpoint round trip preserves forward outputs bitwise; "
           f"two reruns' outputs byte-identical ({len(compared)}"
           f" files compared{', diffs: ' + str(diffs) if diffs else ''})")
