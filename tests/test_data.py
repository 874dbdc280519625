"""Data layer: IDX round trips, synthetic generation, manifests, splits."""

import json
import struct

import numpy as np
import pytest

from cactusnet.applicability import SeparabilityRecord, write_records_csv
from cactusnet.data import (ClassEntry, DatasetManifest, SubsetLabel,
                            build_splits, generate_synthetic, load_dataset,
                            load_idx, sample_probe_set, save_dataset,
                            synthetic_manifest, write_idx_images,
                            write_idx_labels)
from cactusnet.errors import CheckpointError, DataError, ManifestError
from cactusnet.fileio import write_container, write_json
from cactusnet.nn import LayerSpec, Network, TrainConfig, accuracy, train_classifier


class TestIdx:
    def test_blank_images_round_trip(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx_images(path, np.zeros((4, 28, 28), dtype=np.uint8))
        out = load_idx(path)
        assert out.shape == (4, 28, 28, 1)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, 0.0)

    def test_values_scaled_to_unit_range(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx_images(path, np.full((2, 3, 3), 255, dtype=np.uint8))
        np.testing.assert_allclose(load_idx(path), 1.0)

    def test_label_identity_decode(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, [0, 1, 2])
        np.testing.assert_array_equal(load_idx(path), [0, 1, 2])

    def test_declared_vs_actual_length(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">i", 0x00000803))
            fh.write(struct.pack(">3i", 10, 28, 28))
            fh.write(b"\x00" * (9 * 28 * 28))
        with pytest.raises(DataError, match="length"):
            load_idx(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">i", 0x12345678) + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_idx(path)


class TestSyntheticGenerator:
    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic(2, 5, 12, seed=42)
        b = generate_synthetic(2, 5, 12, seed=42)
        for cid in a.images:
            np.testing.assert_array_equal(a.images[cid], b.images[cid])

    def test_counts(self):
        ds = generate_synthetic(3, 10, 12, seed=1)
        assert len(ds.classes) == 6
        assert sum(stack.shape[0] for stack in ds.images.values()) == 60

    def test_pixels_in_unit_range(self):
        ds = generate_synthetic(2, 4, 10, seed=5)
        for stack in ds.images.values():
            assert stack.min() >= 0.0 and stack.max() <= 1.0
            assert stack.dtype == np.float32

    def test_too_small_side_rejected(self):
        with pytest.raises(DataError, match="too small"):
            generate_synthetic(2, 4, 7, seed=0)

    def test_cache_round_trip(self, tmp_path):
        ds = generate_synthetic(2, 6, 10, seed=9)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.classes == ds.classes
        for cid in ds.images:
            np.testing.assert_array_equal(back.images[cid], ds.images[cid])

    def test_cache_magic_guard(self, tmp_path):
        path = tmp_path / "ds.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_dataset(path)

    def test_cache_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ds.bin"
        save_dataset(generate_synthetic(2, 3, 8, seed=1), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_dataset(path)

    def test_cache_header_missing_key_rejected(self, tmp_path):
        path = tmp_path / "ds.bin"
        blob = json.dumps({"classes": [], "per_class": 1, "seed": 0}).encode()
        path.write_bytes(b"CNLDATA1" + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="image_side"):
            load_dataset(path)


@pytest.mark.slow
# The generator as it drew and rendered one image at a time, kept as the
# reference that the whole-class renderer must match byte for byte.

def _reference_organic_image(params, rng, side):
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


def _reference_stripe_field(side, period, theta_deg, phase):
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    theta = np.deg2rad(theta_deg)
    u = xx * np.cos(theta) + yy * np.sin(theta)
    return 0.5 * (1.0 + np.sin(2 * np.pi * u / period + phase))


def _reference_manufactured_image(period, orient, motif, duty, rng, side):
    phase = rng.uniform(0.0, 2 * np.pi)
    field = _reference_stripe_field(side, period, orient, phase)
    if motif == 1:
        phase2 = rng.uniform(0.0, 2 * np.pi)
        field = np.maximum(field, _reference_stripe_field(side, period,
                                                          orient + 90.0, phase2))
    img = 0.15 + 0.7 / (1.0 + np.exp(-(field - duty) * 10.0))
    img += rng.uniform(0.0, 0.05, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _reference_images(n, per_class, side, seed):
    from cactusnet.data.synthetic import (_manufactured_family_params,
                                          _organic_class_params)
    from cactusnet.seeding import rng_for
    images = {}
    for c in range(n):
        params = _organic_class_params(seed, c)
        images[c] = np.stack([
            _reference_organic_image(params, rng_for(seed, 0, c, 1000 + i), side)
            for i in range(per_class)]).astype(np.float32)[..., None]
    periods, orients, motifs, duties = _manufactured_family_params(seed, n)
    for c in range(n):
        images[n + c] = np.stack([
            _reference_manufactured_image(periods[c], orients[c], int(motifs[c]),
                                          duties[c], rng_for(seed, 1, c, 1000 + i),
                                          side)
            for i in range(per_class)]).astype(np.float32)[..., None]
    return images


@pytest.mark.parametrize("n, per_class, side, seed", [
    (11, 36, 20, 3), (3, 300, 20, 3), (11, 36, 20, 7), (2, 50, 20, 42),
    (4, 60, 12, 5), (2, 1, 8, 0), (3, 17, 31, 11), (2, 129, 8, 1)])
def test_whole_class_rendering_matches_the_per_image_reference(n, per_class,
                                                               side, seed):
    ds = generate_synthetic(n, per_class, side, seed)
    want = _reference_images(n, per_class, side, seed)
    assert sorted(ds.images) == sorted(want)
    for cid, stack in want.items():
        assert ds.images[cid].dtype == np.float32
        assert ds.images[cid].shape == stack.shape
        assert ds.images[cid].tobytes() == stack.tobytes()


def test_any_two_classes_separable_by_small_cnn():
    """End-to-end smoke oracle: generated classes carry learnable signal."""
    ds = generate_synthetic(2, 160, 20, seed=77)
    specs = [LayerSpec.conv(8, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
             LayerSpec.flatten(), LayerSpec.dense(16), LayerSpec.relu(),
             LayerSpec.dense(2), LayerSpec.softmax()]
    pairs = [(0, 1), (2, 3), (0, 2)]  # within each family and across
    for a, b in pairs:
        xa, xb = ds.images[a], ds.images[b]
        train = np.concatenate([xa[:120], xb[:120]])
        test = np.concatenate([xa[120:], xb[120:]])
        ytr = np.array([0] * 120 + [1] * 120)
        yte = np.array([0] * 40 + [1] * 40)
        net = Network.build(specs, (20, 20, 1), seed=3)
        net, _ = train_classifier(net, train, ytr, TrainConfig(0.05, 15, 16, seed=5))
        assert accuracy(net, test, yte) >= 0.9, f"pair ({a}, {b}) not separable"


def manifest_fixture():
    entries = [
        ClassEntry(0, "digit_0", SubsetLabel.OBJECTIVE_KNOWN),
        ClassEntry(1, "digit_1", SubsetLabel.OBJECTIVE_KNOWN),
        ClassEntry(5, "digit_5", SubsetLabel.OBJECTIVE_UNKNOWN),
        ClassEntry(6, "digit_6", SubsetLabel.OBJECTIVE_UNKNOWN),
        ClassEntry(7, "digit_7", SubsetLabel.OBJECTIVE_UNKNOWN),
        ClassEntry(10, "shirt", SubsetLabel.NONOBJECTIVE_UNKNOWN),
        ClassEntry(11, "boot", SubsetLabel.NONOBJECTIVE_UNKNOWN),
        ClassEntry(12, "bag", SubsetLabel.NONOBJECTIVE_UNKNOWN),
    ]
    return entries


class TestManifest:
    def test_taxonomy_mirror_validates(self):
        entries = manifest_fixture()
        m = DatasetManifest("digits", tuple(entries), (5, 6, 7, 10, 11, 12),
                            k=6, train_fraction=0.8, seed=1)
        assert m.known_ids == [0, 1]
        assert m.measured_ids == [0, 1]

    def test_probe_containing_known_rejected(self):
        entries = manifest_fixture()
        with pytest.raises(ManifestError, match="objective-known"):
            DatasetManifest("digits", tuple(entries), (0, 6, 7, 10, 11, 12),
                            k=6, train_fraction=0.8, seed=1)

    def test_probe_size_must_match_k(self):
        entries = manifest_fixture()
        with pytest.raises(ManifestError, match="k="):
            DatasetManifest("digits", tuple(entries), (5, 6),
                            k=6, train_fraction=0.8, seed=1)

    def test_json_round_trip(self, tmp_path):
        entries = manifest_fixture()
        m = DatasetManifest("digits", tuple(entries), (5, 6, 7, 10, 11, 12),
                            k=6, train_fraction=0.8, seed=1)
        path = tmp_path / "manifest.json"
        m.save(path)
        assert DatasetManifest.load(path) == m


class TestProbeSampling:
    def test_balanced_draw(self):
        probe = sample_probe_set(manifest_fixture(), 6, seed=3)
        assert len(probe) == 6
        obj = [c for c in probe if c in (5, 6, 7)]
        non = [c for c in probe if c in (10, 11, 12)]
        assert len(obj) == 3 and len(non) == 3

    def test_deterministic(self):
        entries = manifest_fixture() + [
            ClassEntry(8, "digit_8", SubsetLabel.OBJECTIVE_UNKNOWN),
            ClassEntry(13, "coat", SubsetLabel.NONOBJECTIVE_UNKNOWN)]
        assert sample_probe_set(entries, 4, seed=9) == \
            sample_probe_set(entries, 4, seed=9)

    def test_insufficient_pool_reports_counts(self):
        with pytest.raises(ManifestError, match="available"):
            sample_probe_set(manifest_fixture(), 8, seed=0)


class TestSplits:
    def test_fraction_and_disjointness(self):
        entries = manifest_fixture()
        m = DatasetManifest("digits", tuple(entries), (5, 6, 7, 10, 11, 12),
                            k=6, train_fraction=0.8, seed=1)
        rng = np.random.default_rng(0)
        sources = {c.class_id: rng.random((100, 8, 8, 1), dtype=np.float32)
                   for c in entries}
        store = build_splits(m, sources)
        tr = store.train_images(0)
        te = store.test_images(0)
        assert tr.shape[0] == 80 and te.shape[0] == 20
        # disjoint: no train row appears in test
        tr_keys = {r.tobytes() for r in tr}
        assert all(r.tobytes() not in tr_keys for r in te)

    def test_missing_source_listed(self):
        entries = manifest_fixture()
        m = DatasetManifest("digits", tuple(entries), (5, 6, 7, 10, 11, 12),
                            k=6, train_fraction=0.8, seed=1)
        with pytest.raises(ManifestError, match=r"\[10, 11, 12\]"):
            build_splits(m, {c.class_id: np.zeros((10, 8, 8, 1))
                             for c in entries if c.class_id < 10})


class TestClassSubset:
    def test_subset_renders_the_full_corpus_stacks_bitwise(self):
        # more images than one render chunk, so chunks are split too
        full = generate_synthetic(3, 70, 10, seed=4)
        part = generate_synthetic(3, 70, 10, 4, [4, 1])
        assert part.classes == full.classes and sorted(part.images) == [1, 4]
        for c in (1, 4):
            assert part.images[c].tobytes() == full.images[c].tobytes()
        names = generate_synthetic(3, 70, 10, 4, ())
        assert names.classes == full.classes and names.images == {}

    def test_subset_splits_match_the_full_splits(self):
        ds = generate_synthetic(6, 12, 10, seed=2)
        m = synthetic_manifest(ds, num_known=2, num_objective_unknown=2,
                               num_nonobjective_unknown=2, k=4,
                               train_fraction=0.75, seed=11)
        full = build_splits(m, ds.images)
        part = build_splits(m, generate_synthetic(6, 12, 10, 2, m.known_ids).images,
                            m.known_ids)
        assert part.class_ids == sorted(m.known_ids)
        for c in m.known_ids:
            assert part.train_images(c).tobytes() == full.train_images(c).tobytes()
            assert part.test_images(c).tobytes() == full.test_images(c).tobytes()

    def test_cache_holds_the_rendered_classes(self, tmp_path):
        part = generate_synthetic(2, 3, 8, 1, [3])
        save_dataset(part, tmp_path / "part.bin")
        back = load_dataset(tmp_path / "part.bin")
        assert [c.class_id for c in back.classes] == [3]
        assert back.images[3].tobytes() == part.images[3].tobytes()


class TestSyntheticManifest:
    def test_structure(self):
        ds = generate_synthetic(6, 4, 10, seed=2)
        m = synthetic_manifest(ds, num_known=2, num_objective_unknown=2,
                               num_nonobjective_unknown=2, k=4,
                               train_fraction=0.75, seed=11)
        assert len(m.known_ids) == 2
        assert len(m.probe_set) == 4
        assert len(m.measured_ids) == 6
        probes = {m.entry(cid).subset for cid in m.probe_set}
        assert probes == {SubsetLabel.OBJECTIVE_UNKNOWN,
                          SubsetLabel.NONOBJECTIVE_UNKNOWN}
        # probes never overlap measured classes
        assert not set(m.probe_set) & set(m.measured_ids)


class TestAtomicWrites:
    """A whole-file write that raises halfway leaves the old file as it
    was and no temp file beside it."""

    @staticmethod
    def _tensors_then_fail():
        yield np.ones(4, dtype=np.float32)
        raise RuntimeError("killed mid-payload")

    @pytest.mark.parametrize("writer", ["container", "json", "records"])
    def test_failed_write_keeps_the_old_bytes(self, tmp_path, writer):
        path = tmp_path / "target"
        path.write_bytes(b"old bytes")
        fail = {
            "container": lambda: write_container(path, b"CNLTEST1", {"n": 2},
                                                 self._tensors_then_fail()),
            "json": lambda: write_json(path, {"a": 1, "b": object()}),
            "records": lambda: write_records_csv(path, [
                SeparabilityRecord(0, 1, 2, 0.5, 7),
                SeparabilityRecord(1, 1, 2, object(), 8)]),
        }[writer]
        with pytest.raises((RuntimeError, TypeError)):
            fail()
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    def test_successful_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("stale")
        write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
