"""Thresholds, three-way verdicts, routing, branch growth, replay."""

import numpy as np
import pytest

from cactusnet.cactus import (ROUTE_CHUNK, GrowthConfig, Thresholds, Verdict,
                              baseline_from_tables, build_tree,
                              classify_batch, classify_or_flag,
                              create_branch, decide, grow, load_growth_log,
                              load_tree, replay_log, route_step,
                              save_growth_log, save_tree)
from cactusnet.config import compute_thresholds
from cactusnet.data import ClassEntry, SubsetLabel
from cactusnet.errors import ConfigError, RoutingError
from cactusnet.nn import LayerSpec, Network, forward
from cactusnet.table import ApplicabilityTable


class TestComputeThresholds:
    def test_reference_baselines(self):
        t = compute_thresholds(0.986, 0.983, 0.923)
        assert t.tau1 == pytest.approx(0.985, abs=1e-9)
        assert t.tau2 == pytest.approx(0.965, abs=1e-9)

    def test_zero_gap(self):
        t = compute_thresholds(0.9, 0.9, 0.9)
        assert t.tau1 == pytest.approx(0.9, abs=1e-12)

    def test_direct_arithmetic(self):
        assert compute_thresholds(0.9, 0.6, 0.6).tau1 == pytest.approx(0.8, abs=1e-12)

    def test_range_guard(self):
        with pytest.raises(ConfigError):
            compute_thresholds(1.2, 0.5, 0.5)

    def test_algebra_property(self):
        # y <= tau <= q whenever y <= q; exact against (2q + y) / 3;
        # tau2 <= tau1 whenever y2 <= y1
        rng = np.random.default_rng(1)
        for _ in range(500):
            q = float(rng.uniform(0, 1))
            y1 = float(rng.uniform(0, q))
            y2 = float(rng.uniform(0, y1))
            t = compute_thresholds(q, y1, y2)
            assert y1 <= t.tau1 <= q
            assert y2 <= t.tau2 <= q
            assert t.tau2 <= t.tau1
            assert abs(t.tau1 - (2 * q + y1) / 3) <= 1e-9


class TestDecide:
    T = compute_thresholds(0.986, 0.983, 0.923)  # tau1=0.985, tau2=0.965

    def test_known_regime(self):
        assert decide(0.99, self.T) is Verdict.KNOWN

    def test_between_regime(self):
        assert decide(0.975, self.T) is Verdict.OBJECTIVE_UNKNOWN

    def test_below_regime(self):
        assert decide(0.95, self.T) is Verdict.NONOBJECTIVE_UNKNOWN

    def test_boundary_is_strict(self):
        assert decide(self.T.tau1, self.T) is Verdict.OBJECTIVE_UNKNOWN
        assert decide(self.T.tau2, self.T) is Verdict.NONOBJECTIVE_UNKNOWN

    def test_partition_property(self):
        """Exactly one arm fires for any (app, tau1, tau2) with tau2 <= tau1."""
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            t2, t1 = np.sort(rng.uniform(0, 1, size=2))
            app = float(rng.uniform(0, 1))
            t = Thresholds(1.0, 0.0, 0.0, float(t1), float(t2))
            arms = [app > t1, t2 < app <= t1, app <= t2]
            assert sum(arms) == 1
            got = decide(app, t)
            assert [Verdict.KNOWN, Verdict.OBJECTIVE_UNKNOWN,
                    Verdict.NONOBJECTIVE_UNKNOWN][arms.index(True)] is got


def toy_table():
    entries = {}
    classes = {}
    rows = [(0, SubsetLabel.OBJECTIVE_KNOWN, {2: 0.986, 5: 0.97}),
            (1, SubsetLabel.OBJECTIVE_UNKNOWN, {2: 0.983, 5: 0.95}),
            (2, SubsetLabel.NONOBJECTIVE_UNKNOWN, {2: 0.95, 5: 0.923})]
    for cid, subset, row in rows:
        classes[cid] = ClassEntry(cid, f"c{cid}", subset)
        for layer, app in row.items():
            entries[(cid, layer)] = type("E", (), {"app": app})()
    return ApplicabilityTable(entries, 1, classes)


class TestBaselines:
    def test_single_class_rows(self):
        table = toy_table()
        q, y1, y2 = baseline_from_tables(table, layer=2, final_layer=5)
        assert (q, y1, y2) == pytest.approx((0.986, 0.983, 0.923))

    def test_mean_matches_arithmetic_oracle(self):
        table = toy_table()
        table.classes[3] = ClassEntry(3, "c3", SubsetLabel.OBJECTIVE_KNOWN)
        table.entries[(3, 2)] = type("E", (), {"app": 0.9})()
        q, _, _ = baseline_from_tables(table, layer=2, final_layer=5)
        assert abs(q - (0.986 + 0.9) / 2) <= 1e-9

    def test_missing_subset_coverage(self):
        table = toy_table()
        with pytest.raises(ConfigError, match="no"):
            baseline_from_tables(table, layer=3, final_layer=5)


# ---------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------

PAPER_T = compute_thresholds(0.986, 0.983, 0.923)


def never_called(_):
    raise AssertionError("predictor should not be consulted in mock mode")


def small_tree(decision_depth=1):
    net = Network.build(
        [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(8), LayerSpec.relu(),
         LayerSpec.dense(3), LayerSpec.softmax()],
        (10, 10, 1), seed=2)
    return build_tree(net, [2, 5], predictors={2: never_called, 5: never_called},
                      thresholds=PAPER_T, labels=(0, 1, 2),
                      decision_depth=decision_depth)


def deep_tree():
    net = Network.build(
        [LayerSpec.dense(8), LayerSpec.relu(), LayerSpec.dense(8),
         LayerSpec.relu(), LayerSpec.dense(8), LayerSpec.relu(),
         LayerSpec.dense(8), LayerSpec.relu(), LayerSpec.dense(2),
         LayerSpec.softmax()],
        (8,), seed=3)
    return build_tree(net, [1, 3, 5, 7],
                      predictors={i: never_called for i in (1, 3, 5, 7)},
                      thresholds=PAPER_T, labels=(0, 1), decision_depth=2)


class FixedApps:
    """Stand-in predictor emitting one scripted value per (one-row) call."""

    def __init__(self, values):
        self.values = list(values)

    def __call__(self, _activations):
        return [self.values.pop(0)]


def reference_pick(branch_ids, taus, row):
    """One row's pick, written as a plain loop: the column of the highest
    app strictly above its own tau2, ties to the lowest branch id; -1
    when no column qualifies."""
    best = -1
    for j, (bid, tau, app) in enumerate(zip(branch_ids, taus, row)):
        if app > tau and (best < 0 or app > row[best] or
                          (app == row[best] and bid < branch_ids[best])):
            best = j
    return best


class TestRouteStep:
    def node_with_children(self, taus, branch_ids=None):
        from cactusnet.cactus import CactusNode
        tree = small_tree()
        node = tree.root
        node.children = []
        for i, tau2 in enumerate(taus):
            node.children.append(CactusNode(
                node_id=10 + i,
                branch_id=i if branch_ids is None else int(branch_ids[i]),
                block=tree.nodes[1].block, predictor=never_called,
                thresholds=Thresholds(1, 0, 0, 0.99, float(tau2))))
        return node

    def test_max_app_selected(self):
        node = self.node_with_children([0.965, 0.965])
        picks = route_step(node, np.array([[0.97, 0.99], [0.99, 0.97]]))
        assert picks.tolist() == [1, 0]

    def test_single_below_threshold_is_branch_needed(self):
        node = self.node_with_children([0.965])
        assert route_step(node, np.array([[0.95], [0.965]])).tolist() == [-1, -1]

    def test_tie_breaks_to_lowest_branch_id(self):
        node = self.node_with_children([0.9, 0.9, 0.9], branch_ids=[4, 2, 7])
        picks = route_step(node, np.array([[0.98, 0.98, 0.98], [0.98, 0.97, 0.98]]))
        assert picks.tolist() == [1, 0]

    def test_count_mismatch(self):
        node = self.node_with_children([0.9])
        with pytest.raises(RoutingError):
            route_step(node, np.array([[0.98, 0.97]]))
        with pytest.raises(RoutingError):
            route_step(node, np.array([0.98]))

    def test_matches_a_per_row_reference(self):
        rng = np.random.default_rng(4)
        seen = dict.fromkeys(("tie", "at_tau2", "none", "picked"), 0)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            branch_ids = rng.permutation(np.arange(0, 3 * k, 3))  # in any order
            taus = rng.uniform(0.5, 1, size=k)
            # apps drawn from the taus and a few more values give exact ties
            # and apps equal to a tau2; the last rows are drawn freely
            pool = np.concatenate([taus, rng.uniform(0.5, 1, size=3)])
            apps = np.concatenate([rng.choice(pool, size=(12, k)),
                                   rng.uniform(0.5, 1, size=(4, k))])
            picks = route_step(self.node_with_children(taus, branch_ids), apps)
            for row, pick in zip(apps.tolist(), picks.tolist()):
                assert pick == reference_pick(branch_ids.tolist(), taus.tolist(), row)
                qualified = [a for a, t in zip(row, taus) if a > t]
                seen["none"] += not qualified
                seen["picked"] += bool(qualified)
                seen["tie"] += len(qualified) > 1 and \
                    qualified.count(max(qualified)) > 1
                seen["at_tau2"] += any(a == t for a, t in zip(row, taus))
        assert min(seen.values()) > 20, seen

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        apps = rng.uniform(0, 1, size=(200, 3))
        taus = rng.uniform(0.5, 1, size=3)
        # strictly increasing map applied to apps and thresholds alike
        f = lambda v: v ** 3 + 2 * v
        before = route_step(self.node_with_children(taus), apps)
        after = route_step(self.node_with_children(f(taus)), f(apps))
        assert (before >= 0).any() and (before < 0).any()
        assert before.tolist() == after.tolist()


class TestClassifyOrFlag:
    def test_known_regime(self):
        d = classify_or_flag(small_tree(), np.zeros((10, 10, 1)), mock_app=0.99)
        assert d.verdict is Verdict.KNOWN
        assert d.label in (0, 1, 2)

    def test_between_regime(self):
        d = classify_or_flag(small_tree(), np.zeros((10, 10, 1)), mock_app=0.975)
        assert d.verdict is Verdict.OBJECTIVE_UNKNOWN

    def test_boundary_exactly_tau1(self):
        d = classify_or_flag(small_tree(), np.zeros((10, 10, 1)), mock_app=0.985)
        assert d.verdict is Verdict.OBJECTIVE_UNKNOWN

    def test_below_tau2(self):
        d = classify_or_flag(small_tree(), np.zeros((10, 10, 1)), mock_app=0.95)
        assert d.verdict is Verdict.NONOBJECTIVE_UNKNOWN
        assert d.stopped_at is not None

    def test_real_predictors_consulted_per_candidate(self):
        tree = small_tree()
        tree.nodes[1].predictor = FixedApps([0.99])
        d = classify_or_flag(tree, np.zeros((10, 10, 1)))
        assert d.verdict is Verdict.KNOWN
        assert d.apps == [0.99]


def scorer(seed, lo=0.95, span=0.05):
    """A batch predictor smooth in its input: apps in (lo, lo + span)."""
    w = np.random.default_rng(seed).normal(size=8)

    def predictor(acts):
        z = acts.reshape(len(acts), -1) @ w
        return lo + span / (1 + np.exp(-4 * z))
    return predictor


def scored_tree():
    tree = deep_tree()
    for node_id in (1, 2, 3):
        tree.nodes[node_id].predictor = scorer(node_id)
    return tree


class TestClassifyBatch:
    # a zero window never absorbs, so branches run out and inputs go
    # unrouted; a wide one absorbs into the branch it made
    @pytest.mark.parametrize("gcfg", [
        GrowthConfig(max_branches_per_node=2, consolidation_window=0, seed=3),
        GrowthConfig(max_branches_per_node=4, consolidation_window=25, seed=3)])
    def test_chunked_stream_matches_one_input_at_a_time(self, gcfg):
        images = np.random.default_rng(11).normal(
            size=(2 * ROUTE_CHUNK + 7, 8)).astype(np.float32)
        log = grow(scored_tree(), [(image, None) for image in images], gcfg)
        created = [d.input_index for d in log.decisions
                   if d.branch_created is not None]
        assert created and created[0] < ROUTE_CHUNK
        assert {d.verdict for d in log.decisions[ROUTE_CHUNK:]} == set(Verdict)
        assert {d.stopped_at for d in log.decisions} >= {0, 1, 2}
        assert any(d.unrouted if gcfg.consolidation_window == 0 else
                   d.routed_branch is not None and d.branch_created is None
                   for d in log.decisions[ROUTE_CHUNK:])

        alone = scored_tree()  # grown one input at a time, as it goes
        for image, d in zip(images, log.decisions):
            one = classify_or_flag(alone, image)
            assert (d.verdict, d.label, d.path, d.stopped_at) == \
                (one.verdict, one.label, one.path, one.stopped_at)
            np.testing.assert_allclose(d.apps, one.apps, rtol=0, atol=1e-6)
            step = grow(alone, [(image, None)], gcfg).decisions[0]
            assert (d.branch_created, d.routed_branch, d.unrouted) == \
                (step.branch_created, step.routed_branch, step.unrouted)

    def test_mocked_rows_never_reach_a_predictor(self):
        tree = small_tree()
        seen = []

        def recording(acts):
            seen.append(acts)
            return np.full(len(acts), 0.99)

        tree.nodes[1].predictor = recording
        rng = np.random.default_rng(5)
        images = rng.random((ROUTE_CHUNK + 9, 10, 10, 1), dtype=np.float32)
        mocks = [None if i % 3 else 0.95 for i in range(len(images))]
        log = grow(tree, list(zip(images, mocks)), GrowthConfig(seed=3))
        live = np.array([m is None for m in mocks])
        want = forward(tree.nodes[1].block,
                       forward(tree.root.block, images[live])[-1])[-1]
        np.testing.assert_allclose(np.concatenate(seen), want, rtol=0, atol=1e-6)
        assert [d.verdict for d in log.decisions] == [
            Verdict.KNOWN if m is None else Verdict.NONOBJECTIVE_UNKNOWN
            for m in mocks]
        labels = [d.label for d in log.decisions]
        assert len(set(labels) - {None}) > 1
        assert labels == [classify_or_flag(tree, image, mock_app=m).label
                          for image, m in zip(images, mocks)]

    def test_empty_batch(self):
        assert classify_batch(small_tree(), np.zeros((0, 10, 10, 1))) == []

    def test_each_row_goes_to_its_pick_of_two_routable_children(self):
        from cactusnet.cactus import CactusNode
        tree = small_tree()
        trunk = tree.nodes[1]
        trunk.predictor = scorer(2, lo=0.9, span=0.1)
        other = CactusNode(
            node_id=2, branch_id=1, predictor=scorer(1, lo=0.9, span=0.1),
            thresholds=PAPER_T,
            block=Network.build(trunk.block.specs, trunk.block.input_shape, seed=8),
            head=Network.build(trunk.head.specs, trunk.head.input_shape, seed=9),
            labels=(7, 8, 9))
        tree.root.children.insert(0, other)  # listed before the trunk
        tree.nodes[2] = other
        images = np.random.default_rng(7).random((ROUTE_CHUNK, 10, 10, 1),
                                                  dtype=np.float32)
        got = classify_batch(tree, images)

        root_act = forward(tree.root.block, images)[-1]
        acts = [forward(c.block, root_act)[-1] for c in tree.root.children]
        apps = np.stack([c.predictor(a) for c, a in zip(tree.root.children, acts)],
                        axis=1)
        outcomes = set()
        for i, (d, row) in enumerate(zip(got, apps.tolist())):
            pick = reference_pick([1, 0], [PAPER_T.tau2] * 2, row)
            assert d.apps == [row[pick] if pick >= 0 else max(row)]
            if pick < 0:
                assert (d.verdict, d.path, d.stopped_at) == \
                    (Verdict.NONOBJECTIVE_UNKNOWN, [0], 0)
                outcomes.add(f"none, highest app of {int(np.argmax(row))}")
                continue
            child = tree.root.children[pick]
            assert d.path == [0, child.node_id] and d.stopped_at is None
            if row[pick] <= PAPER_T.tau1:
                assert (d.verdict, d.label) == (Verdict.OBJECTIVE_UNKNOWN, None)
                outcomes.add("objective_unknown")
                continue
            logits = forward(child.head, acts[pick][i:i + 1])[-1]
            assert d.verdict is Verdict.KNOWN
            assert d.label == child.labels[int(logits.argmax())]
            outcomes.add(f"known via {child.node_id}")
        assert outcomes == {"none, highest app of 0", "none, highest app of 1",
                            "objective_unknown", "known via 1", "known via 2"}


class TestCreateBranch:
    def test_clone_contract_two_blocks_plus_head(self):
        tree = deep_tree()
        at = tree.nodes[1]  # depth-1 node of a 4-block trunk
        before = set(tree.nodes)
        bid = create_branch(tree, at, seed=5)
        new_nodes = [tree.nodes[i] for i in sorted(set(tree.nodes) - before)]
        assert bid == 1
        assert len(new_nodes) == 2          # clones of the two blocks below
        assert new_nodes[-1].head is not None
        assert new_nodes[-1].labels == ()
        assert new_nodes[-1].provisional_label == "new-class-1"
        assert all(n.provisional for n in new_nodes)

    def test_trunk_noninterference_bitwise(self):
        tree = deep_tree()
        x = np.random.default_rng(0).random((4, 8), dtype=np.float32)
        def trunk_out(t):
            act = forward(t.root.block, x)[-1]
            for node in t.trunk_chain()[1:]:
                act = forward(node.block, act)[-1]
            return act
        before = trunk_out(tree)
        create_branch(tree, tree.nodes[1], seed=5)
        create_branch(tree, tree.nodes[0], seed=9)
        np.testing.assert_array_equal(trunk_out(tree), before)

    def test_distinct_seeds_distinct_parameters(self):
        tree = deep_tree()
        b1 = create_branch(tree, tree.nodes[1], seed=5)
        b2 = create_branch(tree, tree.nodes[1], seed=6)
        n1 = next(n for n in tree.nodes.values() if n.branch_id == b1)
        n2 = next(n for n in tree.nodes.values() if n.branch_id == b2)
        assert not np.array_equal(n1.block.params[0]["W"],
                                  n2.block.params[0]["W"])


def mock_stream(apps, shape=(10, 10, 1)):
    return [(np.zeros(shape, dtype=np.float32), a) for a in apps]


class TestGrow:
    def test_homogeneous_stream_consolidates_to_one_branch(self):
        tree = small_tree()
        log = grow(tree, mock_stream([0.95] * 50), GrowthConfig(
            max_branches_per_node=4, consolidation_window=25, seed=3))
        assert len(log.decisions) == 50
        created = [d.branch_created for d in log.decisions
                   if d.branch_created is not None]
        assert created == [1]
        absorbed = [d for d in log.decisions if d.routed_branch == 1]
        assert len(absorbed) == 50

    def test_all_known_stream_changes_nothing(self):
        tree = small_tree()
        topo_before = tree.topology()
        log = grow(tree, mock_stream([0.99] * 10), GrowthConfig(seed=3))
        assert tree.topology() == topo_before
        assert log.verdict_counts() == {Verdict.KNOWN: 10}

    def test_branch_limit_logs_unrouted(self):
        tree = small_tree()
        log = grow(tree, mock_stream([0.95] * 5), GrowthConfig(
            max_branches_per_node=0, consolidation_window=25, seed=3))
        assert all(d.unrouted for d in log.decisions)
        assert len(log.decisions) == 5

    def test_regime_replay_histogram(self):
        apps = [0.99, 0.99, 0.99, 0.99, 0.95, 0.99, 0.975, 0.975, 0.95]
        tree = small_tree()
        log = grow(tree, mock_stream(apps), GrowthConfig(seed=3))
        counts = log.verdict_counts()
        assert counts == {Verdict.KNOWN: 5, Verdict.OBJECTIVE_UNKNOWN: 2,
                          Verdict.NONOBJECTIVE_UNKNOWN: 2}

    def test_replay_reconstructs_topology(self):
        grown = small_tree()
        log = grow(grown, mock_stream([0.95] * 50), GrowthConfig(
            max_branches_per_node=4, consolidation_window=25, seed=3))
        replayed = replay_log(small_tree(), log)
        assert replayed.topology() == grown.topology()

    def test_objective_unknown_gets_provisional_label(self):
        tree = small_tree()
        log = grow(tree, mock_stream([0.975]), GrowthConfig(seed=3))
        assert log.decisions[0].provisional_label == "objective-unknown-0"


class TestPersistence:
    def test_tree_round_trip(self, tmp_path):
        tree = small_tree()
        grow(tree, mock_stream([0.95] * 30), GrowthConfig(seed=3))
        save_tree(tree, tmp_path / "tree")
        loaded = load_tree(tmp_path / "tree")
        assert loaded.topology() == tree.topology()
        assert loaded.decision_depth == tree.decision_depth

    def test_a_save_replaces_the_whole_tree(self, tmp_path):
        save_tree(deep_tree(), tmp_path / "tree")  # four nodes
        tree = small_tree()                        # two nodes
        save_tree(tree, tmp_path / "tree")
        expected = {"tree.json"} | {f"node_{i}.ckpt" for i in tree.nodes} | {
            f"head_{i}.ckpt" for i, n in tree.nodes.items() if n.head is not None}
        assert {p.name for p in (tmp_path / "tree").iterdir()} == expected
        assert [p.name for p in tmp_path.iterdir()] == ["tree"]
        assert load_tree(tmp_path / "tree").topology() == tree.topology()

    def test_a_failed_save_leaves_the_old_tree(self, tmp_path, monkeypatch):
        import cactusnet.cactus as cactus_module
        old = deep_tree()
        save_tree(old, tmp_path / "tree")
        real_save, saved = cactus_module.checkpoint_save, []

        def save_then_fail(net, path):
            saved.append(path)
            if len(saved) == 2:
                raise OSError("disk full")
            real_save(net, path)

        monkeypatch.setattr(cactus_module, "checkpoint_save", save_then_fail)
        with pytest.raises(OSError):
            save_tree(small_tree(), tmp_path / "tree")
        assert load_tree(tmp_path / "tree").topology() == old.topology()

    def test_growth_log_lines_are_json_dumps_with_sorted_keys(self, tmp_path):
        # the reference every line is held to; a RouteDecision field the
        # writer's template does not spell out fails here
        from dataclasses import asdict
        import json
        from cactusnet.cactus import GrowthLog, RouteDecision
        decisions = [
            RouteDecision(Verdict.KNOWN, label=2, path=[0, 1, 3],
                          apps=[1e-07, 0.1, 1.0], input_index=0, unrouted=False),
            RouteDecision(Verdict.NONOBJECTIVE_UNKNOWN, path=[0], apps=[0.0],
                          branch_created=4, routed_branch=4, input_index=1,
                          provisional_label="new-class-4", stopped_at=0),
            RouteDecision(Verdict.OBJECTIVE_UNKNOWN, path=[0, 1], apps=[0.975],
                          input_index=12, provisional_label="objective-unknown-12"),
            RouteDecision(Verdict.NONOBJECTIVE_UNKNOWN, path=[0, 1, 2],
                          apps=[0.5, 2 / 3, 0.96], input_index=123456789012,
                          unrouted=True, stopped_at=2,
                          provisional_label='q"\\/\n\t\x00 é\u2603\U0001f335'),
            RouteDecision(Verdict.KNOWN),
        ]
        log = GrowthLog(GrowthConfig(seed=3), decisions)
        save_growth_log(log, tmp_path / "log.jsonl")
        want = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in (
            {"config": asdict(log.config)}, *(d.to_dict() for d in decisions)))
        assert (tmp_path / "log.jsonl").read_bytes() == want.encode("utf-8")
        back = load_growth_log(tmp_path / "log.jsonl")
        assert [d.to_dict() for d in back.decisions] == \
            [d.to_dict() for d in decisions]

    def test_growth_log_round_trip(self, tmp_path):
        tree = small_tree()
        log = grow(tree, mock_stream([0.99, 0.95, 0.975]), GrowthConfig(seed=3))
        path = tmp_path / "log.jsonl"
        save_growth_log(log, path)
        back = load_growth_log(path)
        assert [d.to_dict() for d in back.decisions] == \
            [d.to_dict() for d in log.decisions]
        assert back.config == log.config
