"""Separability jobs, applicability aggregation, sweeps, subset curves."""

import math
import os
from itertools import groupby

import numpy as np
import pytest

from cactusnet import parallel
from cactusnet.applicability import (TapFeatures, _cell_stacks, _job_cost,
                                     _stack_taps, job_seed, layer_sweep,
                                     pair_separability, run_jobs, sweep_jobs)
from cactusnet.data import (SubsetLabel, build_splits, generate_synthetic,
                            synthetic_manifest)
from cactusnet.errors import AggregationError, DataError
from cactusnet.nn import LayerSpec, Network, TrainConfig, forward
from cactusnet.nn.network import split_at
from cactusnet.seeding import derive_seed
from cactusnet.table import (ApplicabilityTable, SeparabilityRecord,
                             class_applicability, read_records_csv,
                             subset_average, write_records_csv, write_table_csv)

# The ten separability values of one probe row, frozen from the source
# experiment record; the independent oracle below recomputes their mean.
MOTH_ROW = (0.98, 0.932, 0.952, 0.964, 0.976, 0.972, 0.98, 0.952, 0.952, 0.932)


def records_for(values, x=1, layer=5):
    return [SeparabilityRecord(x, 100 + j, layer, v, seed=j)
            for j, v in enumerate(values)]


class TestClassApplicability:
    def test_reference_row_mean(self):
        oracle = sum(MOTH_ROW) / len(MOTH_ROW)
        app = class_applicability(records_for(MOTH_ROW))
        assert app == pytest.approx(0.9592, abs=1e-6)
        assert app == pytest.approx(oracle, abs=1e-12)

    def test_unanimity(self):
        assert class_applicability(records_for([1.0] * 4)) == 1.0

    def test_chance_pair(self):
        assert class_applicability(records_for([0.5, 0.5])) == 0.5

    def test_permutation_invariance(self):
        recs = records_for(MOTH_ROW)
        shuffled = [recs[i] for i in np.random.default_rng(0).permutation(len(recs))]
        assert class_applicability(shuffled) == class_applicability(recs)

    def test_mixed_keys_rejected(self):
        recs = records_for([0.9, 0.8])
        recs.append(SeparabilityRecord(2, 300, 5, 0.7, seed=0))
        with pytest.raises(AggregationError, match="mix"):
            class_applicability(recs)

    def test_duplicate_probes_rejected(self):
        recs = [SeparabilityRecord(1, 100, 5, 0.9, 0),
                SeparabilityRecord(1, 100, 5, 0.8, 1)]
        with pytest.raises(AggregationError, match="duplicate"):
            class_applicability(recs)


# ---------------------------------------------------------------------
# Desk-scale fixture shared by the job-level tests
# ---------------------------------------------------------------------

SPECS = [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(16), LayerSpec.relu(),
         LayerSpec.dense(3), LayerSpec.softmax()]
TAPS = [2, 5]


@pytest.fixture(scope="module")
def small_world():
    ds = generate_synthetic(4, 120, 12, seed=31)
    manifest = synthetic_manifest(ds, num_known=1, num_objective_unknown=1,
                                  num_nonobjective_unknown=1, k=2,
                                  train_fraction=0.5, seed=31)
    splits = build_splits(manifest, ds.images)
    net = Network.build(SPECS, (12, 12, 1), seed=8)
    cfg = TrainConfig(0.05, 3, 16, seed=0)
    return manifest, splits, net, cfg


@pytest.fixture
def one_worker(monkeypatch):
    """Run every stack in this process, so that a patch observing calls
    through a closure sees them."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)


class TestPairSeparability:
    def test_deterministic_given_seed(self, small_world):
        manifest, splits, net, cfg = small_world
        x = manifest.measured_ids[0]
        un = manifest.probe_set[0]
        a = pair_separability(net, 2, x, un, splits, cfg.with_seed(99))
        b = pair_separability(net, 2, x, un, splits, cfg.with_seed(99))
        assert a == b

    def test_xi_in_unit_range(self, small_world):
        manifest, splits, net, cfg = small_world
        rec = pair_separability(net, 2, manifest.measured_ids[0],
                                manifest.probe_set[0], splits, cfg)
        assert 0.0 <= rec.xi <= 1.0

    def test_self_control_is_chance_level(self, small_world):
        manifest, splits, net, cfg = small_world
        x = manifest.known_ids[0]
        for layer in TAPS:
            rec = pair_separability(net, layer, x, x, splits,
                                    cfg.with_seed(layer))
            assert 0.4 <= rec.xi <= 0.6, f"layer {layer}: xi={rec.xi}"

    def test_layer_out_of_range(self, small_world):
        manifest, splits, net, cfg = small_world
        with pytest.raises(DataError):
            pair_separability(net, 99, manifest.measured_ids[0],
                              manifest.probe_set[0], splits, cfg)

    def test_tap_at_the_head_rejected(self, small_world):
        # freezing through the head (layer 6) would leave nothing to train
        manifest, splits, net, cfg = small_world
        with pytest.raises(DataError, match="trainable layer above the tap"):
            pair_separability(net, 6, manifest.measured_ids[0],
                              manifest.probe_set[0], splits, cfg)

    def test_empty_split_is_a_data_error(self, small_world):
        from cactusnet.data.manifest import ClassSplit, SplitStore
        manifest, splits, net, cfg = small_world
        x, un = manifest.measured_ids[0], manifest.probe_set[0]
        emptied = SplitStore({cid: ClassSplit(splits.entry(cid),
                                              splits.train_images(cid),
                                              splits.test_images(cid)[:0])
                              for cid in (x, un)})
        with pytest.raises(DataError, match="empty split"):
            pair_separability(net, 2, x, un, emptied, cfg)

    def test_divergence_reports_job_identity(self, small_world, monkeypatch):
        from cactusnet.errors import NumericFailureError
        import cactusnet.applicability as appmod
        manifest, splits, net, cfg = small_world

        def blow_up(*args, **kwargs):
            raise NumericFailureError("boom", layer_index=1)

        monkeypatch.setattr(appmod, "_train_balanced_pair", blow_up)
        x, un = manifest.measured_ids[0], manifest.probe_set[0]
        with pytest.raises(NumericFailureError) as exc:
            pair_separability(net, 2, x, un, splits, cfg)
        assert exc.value.job == (x, un, 2)


def logistic_regression_accuracy(xa_tr, xb_tr, xa_te, xb_te, steps=400, lr=0.5):
    """Plain full-batch logistic regression on flattened pixels."""
    xtr = np.concatenate([xa_tr, xb_tr]).reshape(len(xa_tr) + len(xb_tr), -1)
    ytr = np.array([0.0] * len(xa_tr) + [1.0] * len(xb_tr))
    xte = np.concatenate([xa_te, xb_te]).reshape(len(xa_te) + len(xb_te), -1)
    yte = np.array([0.0] * len(xa_te) + [1.0] * len(xb_te))
    mu, sd = xtr.mean(0), xtr.std(0) + 1e-6
    xtr = (xtr - mu) / sd
    xte = (xte - mu) / sd
    w = np.zeros(xtr.shape[1])
    b = 0.0
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(xtr @ w + b)))
        g = p - ytr
        w -= lr * (xtr.T @ g) / len(ytr)
        b -= lr * g.mean()
    pred = (xte @ w + b) > 0
    return float(np.mean(pred == (yte > 0.5)))


def test_shallow_freeze_matches_pixel_classifier_oracle():
    """Two organic classes are linearly separable in pixel space; a 2-way
    fine-tune frozen at the first layer must track that oracle."""
    ds = generate_synthetic(2, 160, 12, seed=5)
    manifest = synthetic_manifest(ds, num_known=2, num_objective_unknown=0,
                                  num_nonobjective_unknown=2, k=0,
                                  train_fraction=0.625, seed=5)
    splits = build_splits(manifest, ds.images)
    a, b = 0, 1  # organic_00 vs organic_01: distinct blob layouts
    oracle = logistic_regression_accuracy(
        splits.train_images(a), splits.train_images(b),
        splits.test_images(a), splits.test_images(b))
    net = Network.build(SPECS, (12, 12, 1), seed=8)
    rec = pair_separability(net, 0, a, b, splits, TrainConfig(0.05, 4, 16, seed=3))
    assert rec.xi >= 0.9
    assert abs(rec.xi - oracle) <= 0.1


class TestSweep:
    def test_job_counting(self):
        jobs = sweep_jobs([1, 2, 3], [7, 8], [0, 1, 2, 3])
        assert len(jobs) == 3 * 2 * 4
        assert len(set(jobs)) == len(jobs)

    def test_sweep_builds_full_table(self, small_world):
        manifest, splits, net, cfg = small_world
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        assert len(result.records) == 3 * 2 * 2
        assert len(result.table.entries) == 3 * 2
        assert result.failures == ()
        for entry in result.table.entries.values():
            assert 0.0 <= entry.app <= 1.0

    def test_sweep_deterministic_and_worker_invariant(self, small_world):
        manifest, splits, net, cfg = small_world
        a = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                        splits, cfg, TAPS, master_seed=17)
        b = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                        splits, cfg, TAPS, master_seed=17)
        assert a.records == b.records
        assert {k: e.app for k, e in a.table.entries.items()} == \
            {k: e.app for k, e in b.table.entries.items()}
        # each job is seeded by its identity alone, so splitting the jobs
        # among runs (or workers), in any order, gives the same records
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, TAPS)
        halves = [run_jobs(net, part, splits, cfg, 17)[0]
                  for part in (jobs[1::2][::-1], jobs[0::2])]
        assert sorted(halves[0] + halves[1],
                      key=lambda r: (r.x, r.layer_index, r.un_j)) == list(a.records)

    @pytest.mark.parametrize("patched", [None, "stack_raises", "worker_dies",
                                         "forward_non_finite", "fill_worker_dies"])
    def test_a_two_worker_sweep_matches_a_one_worker_sweep(
            self, small_world, monkeypatch, tmp_path, patched):
        import cactusnet.applicability as appmod
        from cactusnet.data.manifest import ClassSplit, SplitStore
        manifest, splits, net, cfg = small_world
        # tap 99 is past the head, so its jobs fail
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, [*TAPS, 99])
        real, parent = appmod.stacked_separability, os.getpid()
        real_fill = appmod._fill_stack
        victim = manifest.measured_ids[0]
        if patched == "forward_non_finite":
            # the victim's train split is NaN, so its forward fails at layer 0
            splits = SplitStore({cid: ClassSplit(
                splits.entry(cid),
                splits.train_images(cid) * (np.nan if cid == victim else 1),
                splits.test_images(cid)) for cid in splits.class_ids})

        def marking(net, layer, pairs, features, cfg, seeds):
            # a file per process that runs a stack
            (tmp_path / str(os.getpid())).touch()
            if patched == "stack_raises":
                raise DataError("synthetic failure")
            if patched == "worker_dies" and os.getpid() != parent:
                os._exit(1)  # unreported: the parent runs the stack itself
            return real(net, layer, pairs, features, cfg, seeds)

        def marking_fill(net, splits, slots, stack):
            # and per process that renders and forwards a stack
            (tmp_path / str(os.getpid())).touch()
            if (patched == "fill_worker_dies" and stack[0] == victim
                    and os.getpid() != parent):
                os._exit(1)  # unreported: the parent fills the stack's slots
            return real_fill(net, splits, slots, stack)

        monkeypatch.setattr(appmod, "stacked_separability", marking)
        monkeypatch.setattr(appmod, "_fill_stack", marking_fill)
        sweeps = {}
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
            seen = []
            records, failures = run_jobs(net, jobs, splits, cfg, 17,
                                         on_record=seen.append)
            ran_in = {int(p.name) for p in tmp_path.iterdir()}
            for p in tmp_path.iterdir():
                p.unlink()
            sweeps[cpus] = records, failures, seen
            assert (ran_in == {os.getpid()}) == (cpus == 1)
        assert sweeps[2] == sweeps[1]
        records, failures, seen = sweeps[2]
        failed = [job for job in jobs
                  if patched == "stack_raises" or job[2] == 99
                  or patched == "forward_non_finite" and job[0] == victim]
        assert [(f.x, f.un_j, f.layer_index, f.seed) for f in failures] == [
            (*job, job_seed(17, *job))
            for job in sorted(failed, key=lambda j: (j[0], j[2], j[1]))]
        assert seen == [r for job in jobs for r in records
                        if (r.x, r.un_j, r.layer_index) == job]
        assert len(records) == len(jobs) - len(failed)
        if patched == "stack_raises":
            assert {f.error for f in failures if f.layer_index != 99} == {
                "synthetic failure"}
        if patched == "forward_non_finite":
            for f in failures:
                if f.layer_index != 99:
                    assert f.error == (
                        f"1-vs-1 job (x={victim}, un_j={f.un_j}, layer="
                        f"{f.layer_index}) diverged: non-finite activation at "
                        "layer 0 (Conv2D)")

    def test_mean_consistency_oracle(self, small_world):
        manifest, splits, net, cfg = small_world
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        for entry in result.table.entries.values():
            oracle = math.fsum(r.xi for r in entry.records) / len(entry.records)
            assert abs(entry.app - oracle) <= 1e-9

    def test_failed_jobs_marked_absent(self, small_world, monkeypatch):
        manifest, splits, net, cfg = small_world
        victim = (manifest.measured_ids[0], manifest.probe_set[0], TAPS[0])
        import cactusnet.applicability as appmod
        real = appmod.stacked_separability

        def flaky(net, layer, pairs, features, cfg, seeds):
            if any((x, un_j, layer) == victim for x, un_j in pairs):
                raise DataError("synthetic failure")
            return real(net, layer, pairs, features, cfg, seeds)

        monkeypatch.setattr(appmod, "stacked_separability", flaky)
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        assert len(result.failures) == 1
        assert (victim[0], victim[2]) not in result.table.entries
        # other cells unaffected
        assert len(result.table.entries) == 3 * 2 - 1

    def test_completed_jobs_skipped(self, small_world):
        manifest, splits, net, cfg = small_world
        full = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                           splits, cfg, TAPS, master_seed=17)
        new = []
        partial = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                              splits, cfg, TAPS, master_seed=17,
                              completed=full.records[:5], on_record=new.append)
        assert len(new) == len(full.records) - 5
        merged = sorted(set(new) | set(full.records[:5]),
                        key=lambda r: (r.x, r.layer_index, r.un_j))
        assert merged == list(full.records)
        assert partial.records == full.records

    @pytest.mark.parametrize("cut", ["first_five", "one_cells_first", "all"])
    def test_resumed_sweep_returns_the_uninterrupted_result(self, small_world,
                                                            cut):
        manifest, splits, net, cfg = small_world
        full = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                           splits, cfg, TAPS, master_seed=17)
        k = len(manifest.probe_set)
        completed = {"first_five": full.records[:5],
                     "one_cells_first": full.records[k:k + 1],
                     "all": full.records[::-1]}[cut]
        new = []
        resumed = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                              splits, cfg, TAPS, master_seed=17,
                              completed=completed, on_record=new.append)
        assert len(new) == len(full.records) - len(completed)
        assert resumed.records == full.records
        assert resumed.table == full.table
        assert resumed == full

    def test_two_records_of_one_job_rejected(self, small_world):
        manifest, splits, net, cfg = small_world
        first = layer_sweep(net, manifest.measured_ids[:1], manifest.probe_set,
                            splits, cfg, TAPS[:1], master_seed=17).records[0]
        for twin in (first, SeparabilityRecord(first.x, first.un_j,
                                               first.layer_index, 0.5, first.seed)):
            with pytest.raises(DataError, match=f"x={first.x}, un_j={first.un_j}"):
                layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                            splits, cfg, TAPS, master_seed=17,
                            completed=[first, twin])

    def test_measured_probe_overlap_rejected(self, small_world):
        manifest, splits, net, cfg = small_world
        with pytest.raises(DataError, match="both"):
            layer_sweep(net, list(manifest.measured_ids) + [manifest.probe_set[0]],
                        manifest.probe_set, splits, cfg, TAPS, master_seed=1)


class TestTapFeatures:
    def test_each_tap_equals_its_prefix_forward(self, small_world):
        manifest, splits, net, _ = small_world
        cid = manifest.measured_ids[0]
        store = TapFeatures.build(net, splits, _stack_taps([(cid, cid, t) for t in TAPS]))
        for split, images in (("train", splits.train_images(cid)),
                              ("test", splits.test_images(cid))):
            for tap in TAPS:
                want = forward(split_at(net, tap)[0], images)[-1]
                got = store.get(cid, split, tap)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("taps", [[2], [2, 99]])
    def test_a_failed_stack_keeps_none_of_its_images(self, small_world, one_worker,
                                                     taps):
        # tap 99 cannot be forwarded; the error kept for it must not keep
        # the stack it failed on
        import weakref
        from cactusnet.data import ClassImages
        from cactusnet.errors import ShapeMismatchError
        manifest, _, net, _ = small_world
        classes = manifest.measured_ids[:2]
        rendered = []

        def render(cid, indices):
            stack = np.full((len(indices), 12, 12, 1), 0.5, np.float32)
            rendered.append(weakref.ref(stack))
            return stack

        source = ClassImages(manifest, dict.fromkeys(classes, 120), render, classes)
        store = TapFeatures.build(net, source, _stack_taps(
            [(cid, cid, tap) for cid in classes for tap in taps]))
        assert len(rendered) == 4
        assert [ref for ref in rendered if ref() is not None] == []
        for cid in classes:
            assert store.get(cid, "test", 2).shape == (60, *net.shapes[2])
            if 99 in taps:
                with pytest.raises(ShapeMismatchError):
                    store.get(cid, "train", 99)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_build_with_no_stack_maps_nothing(self, small_world, monkeypatch,
                                                cpus):
        import mmap
        manifest, splits, net, _ = small_world
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        monkeypatch.setattr(mmap, "mmap", None)  # a call would raise
        assert TapFeatures.build(net, splits, {})._entries == {}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_features_are_read_only(self, small_world, monkeypatch, cpus):
        manifest, splits, net, _ = small_world
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        cid = manifest.measured_ids[0]
        store = TapFeatures.build(net, splits, _stack_taps([(cid, cid, 2)]))
        features = store.get(cid, "train", 2)
        with pytest.raises(ValueError, match="read-only"):
            features[0] = 0
        assert features.tobytes() == forward(split_at(net, 2)[0],
                                             splits.train_images(cid))[-1].tobytes()

    def test_a_stack_of_another_dtype_fails_its_taps(self, small_world):
        # the store holds the network's float32; a float64 stack's
        # features do not fit their place
        from cactusnet.data.manifest import ClassSplit, SplitStore
        manifest, splits, net, _ = small_world
        cid = manifest.measured_ids[0]
        wide = SplitStore({cid: ClassSplit(splits.entry(cid),
                                           splits.train_images(cid).astype(np.float64),
                                           splits.test_images(cid))})
        store = TapFeatures.build(net, wide, _stack_taps([(cid, cid, 2)]))
        with pytest.raises(TypeError, match="float64"):
            store.get(cid, "train", 2)
        assert store.get(cid, "test", 2).dtype == np.float32

    def test_a_kept_error_holds_no_earlier_reader(self):
        # each job reading a failed tap raises the one kept error; the
        # frames of the jobs that raised it before must not pile up on it
        import weakref
        store = TapFeatures({(0, "train", 2): DataError("unreachable tap")})
        held = []

        def job():
            rows = np.zeros(8)
            held.append(weakref.ref(rows))
            store.get(0, "train", 2)

        for _ in range(2):
            with pytest.raises(DataError, match="unreachable tap"):
                job()
        assert held[0]() is None

    @staticmethod
    def count_forwards(monkeypatch):
        """Patch the forward the sweep calls; count calls in and out of jobs."""
        import cactusnet.applicability as appmod
        counts = {"outside": 0, "inside": 0}
        in_job = [0]
        real_forward, real_job = appmod.forward, appmod.stacked_separability

        def counting_forward(*args, **kwargs):
            counts["inside" if in_job[0] else "outside"] += 1
            return real_forward(*args, **kwargs)

        def counting_job(*args, **kwargs):
            in_job[0] += 1
            try:
                return real_job(*args, **kwargs)
            finally:
                in_job[0] -= 1

        monkeypatch.setattr(appmod, "forward", counting_forward)
        monkeypatch.setattr(appmod, "stacked_separability", counting_job)
        return counts

    def test_one_forward_per_class_and_split(self, small_world, monkeypatch,
                                             one_worker):
        manifest, splits, net, cfg = small_world
        counts = self.count_forwards(monkeypatch)
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        assert result.failures == ()
        classes = set(manifest.measured_ids) | set(manifest.probe_set)
        assert counts == {"outside": 2 * len(classes), "inside": 0}

    def test_completed_resume_runs_no_forward(self, small_world, monkeypatch,
                                              one_worker):
        manifest, splits, net, cfg = small_world
        done = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                           splits, cfg, TAPS, master_seed=17).records
        counts = self.count_forwards(monkeypatch)
        new = []
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17, completed=done,
                             on_record=new.append)
        assert new == [] and result.failures == ()
        assert result.records == done
        assert counts == {"outside": 0, "inside": 0}

    def test_non_finite_between_taps_fails_only_deeper_jobs(self, small_world,
                                                            monkeypatch):
        import cactusnet.nn.layers as L
        manifest, splits, net, cfg = small_world
        victim = manifest.measured_ids[0]
        # layer 4 (Dense) sits between taps 2 and 5; poison it for the
        # victim's train stack only
        flat = forward(split_at(net, 3)[0], splits.train_images(victim))[-1]
        real_dense = L.dense

        def poisoned(x, w, b):
            out = real_dense(x, w, b)
            return np.full_like(out, np.inf) if np.array_equal(x, flat) else out

        monkeypatch.setattr(L, "dense", poisoned)
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        probes = sorted(manifest.probe_set)
        assert [(f.x, f.un_j, f.layer_index, f.seed) for f in result.failures] == [
            (victim, un_j, 5, derive_seed(17, 0xA11, victim, un_j, 5))
            for un_j in probes]
        for f in result.failures:
            assert f"(x={victim}, un_j={f.un_j}, layer=5)" in f.error
            assert "non-finite activation at layer 4" in f.error
        assert len(result.records) == 3 * 2 * 2 - len(probes)
        assert (victim, 2) in result.table.entries
        assert (victim, 5) not in result.table.entries


class TestRunJobs:
    def test_a_tap_past_the_head_fails_its_jobs_without_raising(self, small_world):
        manifest, splits, net, cfg = small_world
        jobs = sweep_jobs(manifest.measured_ids[:1], manifest.probe_set, [99])
        records, failures = run_jobs(net, jobs, splits, cfg, 17)
        assert records == []
        assert [(f.x, f.un_j, f.layer_index) for f in failures] == jobs

    def test_a_tap_past_the_head_fails_only_its_own_jobs(self, small_world):
        # taps 2 and 99 of one class share a forward; tap 99 cannot be
        # reached, and only its jobs fail, each with its own seed and error
        manifest, splits, net, cfg = small_world
        x = manifest.measured_ids[0]
        jobs = sweep_jobs([x], manifest.probe_set, [2, 99])
        records, failures = run_jobs(net, jobs, splits, cfg, 17)
        assert records == run_jobs(net, [j for j in jobs if j[2] == 2], splits,
                                   cfg, 17)[0]
        assert [(r.x, r.un_j, r.layer_index) for r in records] == jobs[:len(records)]
        assert [(f.x, f.un_j, f.layer_index, f.seed) for f in failures] == [
            (*job, job_seed(17, *job)) for job in jobs if job[2] == 99]
        for f in failures:
            assert "layer_index 99 out of range" in f.error

    def test_journal_error_stops_the_sweep(self, small_world, monkeypatch):
        manifest, splits, net, cfg = small_world
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, TAPS)[:4]
        seen = []

        def on_record(rec):
            seen.append(rec)
            if len(seen) == 1:
                raise OSError("journal write failed")

        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        with pytest.raises(OSError, match="journal write failed"):
            run_jobs(net, jobs, splits, cfg, 17, on_record=on_record)
        # the failed append is neither swallowed nor followed by more
        assert len(seen) == 1
        # and no worker outlives the sweep
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    def test_a_stack_cannot_write_the_features(self, small_world, monkeypatch,
                                               tmp_path):
        import cactusnet.applicability as appmod
        manifest, splits, net, cfg = small_world
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, TAPS)
        clean, _ = run_jobs(net, jobs, splits, cfg, 17)
        real, parent = appmod.stacked_separability, os.getpid()

        def writing(net, layer, pairs, features, cfg, seeds):
            try:
                features.get(pairs[0][0], "train", layer)[0] = 0
            except ValueError as exc:
                (tmp_path / str(os.getpid())).write_text(str(exc))
            return real(net, layer, pairs, features, cfg, seeds)

        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(appmod, "stacked_separability", writing)
        records, failures = run_jobs(net, jobs, splits, cfg, 17)
        assert failures == [] and records == clean
        refused = {int(p.name): p.read_text() for p in tmp_path.iterdir()}
        assert refused and parent not in refused
        assert all("read-only" in text for text in refused.values())

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_an_error_out_of_the_fill_leaves_no_worker(self, small_world,
                                                       monkeypatch, error):
        # an OSError crosses the pipe and is raised here at its stack's
        # turn; a worker interrupted dies unreported, and the rerun of
        # its stack here is interrupted too
        import cactusnet.applicability as appmod
        manifest, splits, net, cfg = small_world
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, TAPS)
        real, parent = appmod._fill_stack, os.getpid()
        victim = manifest.probe_set[0]

        def raising(net, splits, slots, stack):
            if stack[0] == victim:
                if error is KeyboardInterrupt and os.getpid() != parent:
                    os._exit(1)
                raise error("the fill stops")
            return real(net, splits, slots, stack)

        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(appmod, "_fill_stack", raising)
        seen = []
        with pytest.raises(error, match="the fill stops"):
            run_jobs(net, jobs, splits, cfg, 17, on_record=seen.append)
        assert seen == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# two convolutions, so that the suffix of a shallow tap trains a stacked
# Conv2D: 12x12 -> 10x10x4 -> 5x5x4 -> 4x4x6 -> 2x2x6 -> 24 -> 8 -> 3
DEEP_SPECS = [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
              LayerSpec.conv(6, 2), LayerSpec.relu(), LayerSpec.maxpool(2),
              LayerSpec.flatten(), LayerSpec.dense(8), LayerSpec.relu(),
              LayerSpec.dense(3), LayerSpec.softmax()]


class TestStackedCell:
    """A cell's jobs trained as one stack give each job its lone bits."""

    @pytest.fixture(scope="class")
    def deep(self, small_world):
        manifest, splits, _, cfg = small_world
        net = Network.build(DEEP_SPECS, (12, 12, 1), seed=4)
        x = manifest.measured_ids[0]
        return net, splits, x, [c for c in splits.class_ids if c != x], cfg

    @staticmethod
    def capture_training(monkeypatch):
        """The stacked network each SGD run returns, in call order."""
        import cactusnet.applicability as appmod
        trained = []
        real = appmod._train_balanced_pair

        def capturing(net, train_pairs, seeds, cfg):
            trained.append(real(net, train_pairs, seeds, cfg))
            return trained[-1]

        monkeypatch.setattr(appmod, "_train_balanced_pair", capturing)
        return trained

    @pytest.mark.parametrize("tap", range(9))
    def test_each_stacked_job_has_its_lone_bits(self, deep, tap, monkeypatch,
                                                one_worker):
        net, splits, x, others, cfg = deep
        jobs = [(x, un_j, tap) for un_j in others]
        trained = self.capture_training(monkeypatch)
        records, failures = run_jobs(net, jobs, splits, cfg, 5)
        assert failures == [] and len(trained) == 1
        stacked = trained.pop()
        assert stacked.stack == (len(jobs),)
        features = TapFeatures.build(net, splits, _stack_taps(jobs))
        for j, (rec, job) in enumerate(zip(records, jobs)):
            alone = pair_separability(net, tap, x, job[1], features,
                                      cfg.with_seed(job_seed(5, *job)))
            assert rec == alone
            lone = trained.pop()
            assert lone.stack == (1,)
            for p_stack, p_alone in zip(stacked.params, lone.params):
                for key in () if p_alone is None else ("W", "b"):
                    assert p_stack[key][j].tobytes() == p_alone[key][0].tobytes()

    @pytest.mark.parametrize("tap", range(9))
    def test_a_stack_spanning_classes_gives_each_job_its_lone_bits(
            self, deep, tap, monkeypatch, one_worker):
        net, splits, x, others, cfg = deep
        # a four-job cell, then two two-job cells of other classes, which
        # fit in one stack within the four-job cell's cost
        jobs = [(x, un_j, tap) for un_j in others]
        jobs += [(c, un_j, tap) for c in others[::2] for un_j in others[1::2]]
        trained = self.capture_training(monkeypatch)
        records, failures = run_jobs(net, jobs, splits, cfg, 5)
        assert failures == [] and [t.stack for t in trained] == [(4,), (4,)]
        stacks = {job: (trained[0], j) for j, job in enumerate(jobs[:4])}
        stacks.update({job: (trained[1], j) for j, job in enumerate(jobs[4:])})
        del trained[:]
        features = TapFeatures.build(net, splits, _stack_taps(jobs))
        by_job = {(r.x, r.un_j, r.layer_index): r for r in records}
        for job in jobs:
            alone = pair_separability(net, tap, *job[:2], features,
                                      cfg.with_seed(job_seed(5, *job)))
            assert by_job[job] == alone
            stacked, j = stacks[job]
            lone = trained.pop()
            for p_stack, p_alone in zip(stacked.params, lone.params):
                for key in () if p_alone is None else ("W", "b"):
                    assert p_stack[key][j].tobytes() == p_alone[key][0].tobytes()

    def test_a_poisoned_probe_fails_only_its_job(self, deep, monkeypatch,
                                                 one_worker):
        from cactusnet.errors import NumericFailureError
        net, splits, x, others, cfg = deep
        tap, victim = 3, others[2]
        jobs = [(x, un_j, tap) for un_j in others]
        clean, _ = run_jobs(net, jobs, splits, cfg, 5)
        real_build = TapFeatures.build.__func__

        def poisoned_build(cls, net, splits, taps_by_stack):
            # the victim's train features are infinite, so its stack's
            # first step raises
            store = real_build(cls, net, splits, taps_by_stack)
            key = (victim, "train", tap)
            store._entries[key] = np.full_like(store._entries[key], np.inf)
            return store

        monkeypatch.setattr(TapFeatures, "build", classmethod(poisoned_build))
        trained = self.capture_training(monkeypatch)
        records, failures = run_jobs(net, jobs, splits, cfg, 5)
        seed = job_seed(5, x, victim, tap)
        assert [(f.x, f.un_j, f.layer_index, f.seed) for f in failures] == [
            (x, victim, tap, seed)]
        with pytest.raises(NumericFailureError) as alone:
            pair_separability(net, tap, x, victim, splits, cfg.with_seed(seed))
        assert failures[0].error == str(alone.value)
        assert failures[0].error.startswith(
            f"1-vs-1 job (x={x}, un_j={victim}, layer={tap}) diverged: non-finite")
        assert records == [r for r in clean if r.un_j != victim]
        # the stack raised; then every job ran alone
        assert [t.stack for t in trained] == [(1,)] * (len(jobs) - 1)

    def test_unequal_pairs_stack_by_size_without_padding(self, deep, monkeypatch,
                                                         one_worker):
        from cactusnet.data.manifest import ClassSplit, SplitStore
        net, splits, x, others, cfg = deep
        n = splits.train_images(x).shape[0]
        cut = {others[1]: n - 20, others[3]: n - 35}
        uneven = SplitStore({cid: ClassSplit(splits.entry(cid),
                                             splits.train_images(cid)[:cut.get(cid)],
                                             splits.test_images(cid))
                             for cid in splits.class_ids})
        import cactusnet.applicability as appmod
        sizes = []
        real = appmod._train_balanced_pair

        def sizing(net, train_pairs, seeds, cfg):
            sizes.append((len(train_pairs), len(seeds),
                          {part.shape[0] for pair in train_pairs for part in pair}))
            return real(net, train_pairs, seeds, cfg)

        monkeypatch.setattr(appmod, "_train_balanced_pair", sizing)
        jobs = [(x, un_j, 5) for un_j in others]
        records, failures = run_jobs(net, jobs, uneven, cfg, 5)
        assert failures == []
        stacked = len(others) - len(cut)
        assert sizes == [(stacked, stacked, {n}), (1, 1, {n - 20}),
                         (1, 1, {n - 35})]
        assert records == [pair_separability(net, 5, x, job[1], uneven,
                                              cfg.with_seed(job_seed(5, *job)))
                           for job in jobs]

    def test_a_resumed_cell_stacks_only_its_remaining_jobs(self, small_world,
                                                           monkeypatch,
                                                           one_worker):
        manifest, splits, net, cfg = small_world
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, TAPS)
        first = pair_separability(net, jobs[0][2], *jobs[0][:2], splits,
                                  cfg.with_seed(job_seed(17, *jobs[0])))
        trained = self.capture_training(monkeypatch)
        new = []
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17,
                             completed=[first], on_record=new.append)
        k = len(manifest.probe_set)
        # tap 2: the resumed first cell's one job, then the two other
        # cells, each alone, since a tap-2 cell is the costliest; tap 5:
        # all three cells in one stack
        assert [t.stack for t in trained] == [(k - 1,), (k,), (k,), (3 * k,)]
        assert len(new) == len(jobs) - 1
        assert len(result.records) == len(jobs)


class TestCellStacks:
    """Which consecutive cells of a sweep train as one stack."""

    @staticmethod
    def cells(jobs):
        return [list(cell) for _, cell in groupby(jobs, key=lambda j: (j[0], j[2]))]

    @staticmethod
    def cost(net, cell, batch_size):
        suffix = split_at(net, cell[0][2])[1]
        return sum(_job_cost(suffix, batch_size) for job in cell)

    @pytest.mark.parametrize("done", [0, 1, 3, 7])
    def test_stacks_are_whole_cells_of_one_tap_within_the_costliest(
            self, small_world, done):
        manifest, splits, _, cfg = small_world
        net = Network.build(DEEP_SPECS, (12, 12, 1), seed=4)
        taps = [0, 2, 3, 5, 7]
        jobs = sweep_jobs(manifest.measured_ids, manifest.probe_set, taps)[done:]
        cells = self.cells(jobs)
        stacks = _cell_stacks(net, cells, cfg.batch_size)
        assert [cell for stack in stacks for cell in stack] == cells
        costs = {id(cell): self.cost(net, cell, cfg.batch_size)
                 for cell in cells}
        bound = max(costs.values())
        for stack, after in zip(stacks, stacks[1:] + [None]):
            assert len({cell[0][2] for cell in stack}) == 1
            load = sum(costs[id(cell)] for cell in stack)
            assert load <= bound
            # a stack ends only at a new tap or where the next cell would
            # take it past the bound
            if after and after[0][0][2] == stack[0][0][2]:
                assert load + costs[id(after[0])] > bound
        # taps 5 and 7 train only dense heads: each tap is one stack
        assert [len(stack) for stack in stacks[-2:]] == [len(manifest.measured_ids)] * 2

    def test_default_architecture_at_the_benchmark_size(self):
        # 20x20 images, pair batches of 32, as at the benchmark's size and
        # the desk default alike: a tap-2 cell is the costliest; tap 5
        # stacks five cells, taps 7 and 10 all eleven
        from cactusnet.config import DEFAULTS, config_from_dict
        cfg = config_from_dict(DEFAULTS)
        side = cfg.dataset.image_side
        net = Network.build(cfg.layers, (side, side, 1), seed=0)
        jobs = sweep_jobs(range(11), range(11, 17), cfg.taps)
        stacks = _cell_stacks(net, self.cells(jobs), 32)
        assert [(stack[0][0][2], len(stack)) for stack in stacks] == (
            [(2, 1)] * 11 + [(5, 5), (5, 5), (5, 1), (7, 11), (10, 11)])


class TestSubsetAverage:
    def table_with(self, rows):
        from cactusnet.data import ClassEntry
        entries = {}
        classes = {}
        for cid, subset, row in rows:
            classes[cid] = ClassEntry(cid, f"c{cid}", subset)
            for layer, app in enumerate(row):
                entries[(cid, layer)] = type("E", (), {"app": app})()
        return ApplicabilityTable(entries, 2, classes)

    def test_single_class_subset_equals_row(self):
        t = self.table_with([(1, SubsetLabel.OBJECTIVE_KNOWN, [0.9, 0.8])])
        curves = subset_average(t)
        assert curves[(SubsetLabel.OBJECTIVE_KNOWN, 0)] == pytest.approx(0.9)
        assert curves[(SubsetLabel.OBJECTIVE_KNOWN, 1)] == pytest.approx(0.8)

    def test_two_class_mean(self):
        t = self.table_with([(1, SubsetLabel.OBJECTIVE_KNOWN, [0.9, 0.8]),
                             (2, SubsetLabel.OBJECTIVE_KNOWN, [0.7, 0.6])])
        curves = subset_average(t)
        assert curves[(SubsetLabel.OBJECTIVE_KNOWN, 0)] == pytest.approx(0.8)
        assert curves[(SubsetLabel.OBJECTIVE_KNOWN, 1)] == pytest.approx(0.7)

    def test_unlabeled_class_rejected(self):
        t = self.table_with([(1, SubsetLabel.OBJECTIVE_KNOWN, [0.9])])
        t.classes.clear()  # a table whose classes lack class 1
        with pytest.raises(AggregationError, match="label"):
            subset_average(t)


class TestCsvRoundTrip:
    def test_records_round_trip(self, tmp_path):
        recs = records_for(MOTH_ROW)
        path = tmp_path / "records.csv"
        write_records_csv(path, recs)
        assert read_records_csv(path) == sorted(
            recs, key=lambda r: (r.x, r.layer_index, r.un_j))

    def test_torn_last_row_dropped(self, tmp_path):
        recs = records_for([0.25, 0.5])
        recs[1] = SeparabilityRecord(1, 101, 5, 0.5, seed=6903379388690687955)
        path = tmp_path / "records.csv"
        write_records_csv(path, recs)
        path.write_bytes(path.read_bytes()[:-6])  # cut mid-seed, no newline
        assert read_records_csv(path) == recs[:1]

    @pytest.mark.parametrize("xi", ["5.0", "-0.25", "1.0000001", "nan", "inf"])
    def test_xi_outside_the_unit_interval_names_its_line(self, tmp_path, xi):
        path = tmp_path / "records.csv"
        write_records_csv(path, records_for([0.25, 0.5, 0.75]))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = ",".join(lines[2].split(",")[:3] + [xi] + lines[2].split(",")[4:])
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"line 3: xi {xi}"):
            read_records_csv(path)

    def test_xi_at_the_interval_ends_reads(self, tmp_path):
        path = tmp_path / "records.csv"
        recs = records_for([0.0, 1.0])
        write_records_csv(path, recs)
        assert read_records_csv(path) == recs

    def test_table_csv_schema(self, tmp_path, small_world):
        manifest, splits, net, cfg = small_world
        result = layer_sweep(net, manifest.measured_ids, manifest.probe_set,
                             splits, cfg, TAPS, master_seed=17)
        path = tmp_path / "table.csv"
        write_table_csv(path, result.table)
        header = path.read_text().splitlines()[0]
        assert header == "class_id,class_name,subset,layer,app,k,n_records"
        assert len(path.read_text().splitlines()) == 1 + len(result.table.entries)
