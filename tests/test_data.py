"""Data layer: IDX round trips, synthetic generation, manifests, splits."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from cactusnet.data import (ClassEntry, DatasetManifest, SubsetLabel,
                            SyntheticDataset, build_splits, generate_synthetic,
                            load_dataset, load_idx, render_class,
                            sample_probe_set, save_dataset, split_indices,
                            synthetic_manifest, write_idx_images,
                            write_idx_labels)
from cactusnet.data import synthetic as synthetic_module
from cactusnet.data.synthetic import DATASET_MAGIC
from cactusnet.errors import CheckpointError, DataError, ManifestError
from cactusnet.fileio import write_container, write_json
from cactusnet.nn import (LayerSpec, Network, TrainConfig, accuracy, checkpoint_load,
                          checkpoint_save, train_classifier)
from cactusnet.nn import checkpoint as checkpoint_module
from cactusnet.nn.checkpoint import MAGIC as CKPT_MAGIC
from cactusnet.table import SeparabilityRecord, write_records_csv


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, numpy's
    buffers included, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_negative_dims_rejected(self, tmp_path):
        # -2 * -5 * 4 = 40, the payload's length: only the sign is wrong
        path = tmp_path / "neg.idx"
        path.write_bytes(struct.pack(">i3i", 0x00000803, -2, -5, 4) + b"\x00" * 40)
        with pytest.raises(DataError, match=r"negative.*neg\.idx"):
            load_idx(path)

    def test_images_scale_as_one_division_in_one_copy(self, tmp_path):
        # the payload, one float32 array and nothing else held at once
        pixels = np.random.default_rng(3).integers(0, 256, (500, 28, 28), np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, pixels)
        out, peak = traced_peak(load_idx, path)
        assert peak <= 5.5 * path.stat().st_size
        assert out[..., 0].tobytes() == (pixels.astype(np.float32) / 255.0).tobytes()


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


@pytest.fixture(scope="module")
def reference_140():
    """The per-image reference corpus, 140 images per class: more than
    two render chunks."""
    assert synthetic_module.RENDER_CHUNK == 64
    return _reference_images(3, 140, 10, 4)


def _real_split(cid):
    m = DatasetManifest("split", (ClassEntry(cid, "c", SubsetLabel.OBJECTIVE_UNKNOWN),),
                        (), 0, 2 / 3, seed=6)
    return split_indices(m, cid, 140)


@pytest.mark.parametrize("cid", range(6))
@pytest.mark.parametrize("order", ["shuffled", "across-a-chunk", "reversed",
                                   "train-split", "test-split", "empty"])
def test_an_index_list_renders_those_rows_of_the_per_image_reference(
        reference_140, cid, order):
    indices = {"shuffled": [139, 3, 64, 0, 63, 65, 127, 128],
               "across-a-chunk": list(range(40, 110)),
               "reversed": range(139, -1, -1),
               "train-split": _real_split(cid)[0],
               "test-split": _real_split(cid)[1],
               "empty": []}[order]
    got = render_class(3, 10, 4, cid, indices)
    assert got.dtype == np.float32 and got.shape == (len(indices), 10, 10, 1)
    want = reference_140[cid][np.asarray(indices, dtype=np.int64)]
    assert got.tobytes() == want.tobytes()


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


def reference_write_container(path, magic, header, tensors):
    """The container writer as it was, one ``tobytes`` copy per tensor:
    the bytes the writer must still produce."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(blob)) + blob)
        for t in tensors:
            fh.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def assert_own_memory(arrays):
    for a in arrays:
        assert a.dtype == np.float32 and a.base is None
        assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def dataset_header(ds, **extra):
    return {"classes": [{"class_id": c.class_id, "name": c.name, "family": c.family}
                        for c in ds.classes],
            "image_side": ds.image_side, "per_class": ds.per_class,
            "seed": ds.seed, **extra}


class TestContainer:
    """Checkpoints and dataset caches: each tensor read once, into an
    array of its own; every length checked before anything is allocated;
    the bytes written unchanged."""

    def test_dataset_cache_loads_in_one_copy(self, tmp_path):
        path = tmp_path / "ds.bin"
        save_dataset(generate_synthetic(4, 40, 20, seed=3), path)
        _, peak = traced_peak(load_dataset, path)
        assert peak <= 1.1 * path.stat().st_size

    def test_tensors_own_aligned_memory_at_every_payload_offset(self, tmp_path):
        ds = generate_synthetic(2, 3, 8, seed=1)
        net = Network.build([LayerSpec.conv(2, 3), LayerSpec.flatten(),
                             LayerSpec.dense(3)], (6, 6, 1), seed=0)
        residues = set()
        for pad in range(4):
            cache, ckpt = tmp_path / f"ds{pad}.bin", tmp_path / f"net{pad}.ckpt"
            write_container(cache, DATASET_MAGIC, dataset_header(ds, pad="x" * pad),
                            [ds.images[c.class_id] for c in ds.classes])
            checkpoint_save(net, ckpt, extra={"pad": "x" * pad})
            residues.add((12 + struct.unpack("<I", cache.read_bytes()[8:12])[0]) % 4)
            back = load_dataset(cache)
            assert_own_memory(list(back.images.values()))
            for c in ds.classes:
                assert back.images[c.class_id].tobytes() == \
                    ds.images[c.class_id].tobytes()
            params = [p[k] for p in checkpoint_load(ckpt).params
                      if p is not None for k in ("W", "b")]
            assert_own_memory(params)
            assert [t.tobytes() for t in params] == \
                [p[k].tobytes() for p in net.params if p is not None for k in ("W", "b")]
        # the payload starts at every offset modulo 4
        assert residues == {0, 1, 2, 3}

    @pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
    def test_declared_size_checked_before_allocating(self, tmp_path, kind):
        # the header declares 2**40 floats; the file holds four bytes of them
        path = tmp_path / "huge.bin"
        if kind == "dataset":
            header = {"classes": [{"class_id": 0, "name": "a", "family": "organic"}],
                      "image_side": 2 ** 10, "per_class": 2 ** 20, "seed": 0}
            write_container(path, DATASET_MAGIC, header, [np.zeros(1)])
            load = load_dataset
        else:
            header = {"input_shape": [2 ** 20], "extra": {},
                      "layers": [LayerSpec.dense(2 ** 20).to_dict()],
                      "param_shapes": [{"W": [2 ** 20, 2 ** 20], "b": [2 ** 20]}]}
            write_container(path, CKPT_MAGIC, header, [np.zeros(1)])
            load = checkpoint_load

        def load_and_refuse():
            with pytest.raises(CheckpointError, match="truncated payload"):
                load(path)

        _, peak = traced_peak(load_and_refuse)
        assert peak < 2 ** 20

    def test_declared_header_length_checked_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(DATASET_MAGIC + struct.pack("<I", 2 ** 32 - 1) + b"{}")

        def load_and_refuse():
            with pytest.raises(CheckpointError, match="truncated header"):
                load_dataset(path)

        _, peak = traced_peak(load_and_refuse)
        assert peak < 2 ** 20

    def test_writer_bytes_match_the_tobytes_writer(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        tensors = [
            rng.random((4, 6))[:, ::2],                                # float64, strided
            np.asfortranarray(rng.random((3, 5), dtype=np.float32)),
            rng.random((2, 3, 4), dtype=np.float32).transpose(2, 0, 1),
            rng.random(5).astype(">f4"),                               # big-endian
            np.zeros((0, 3), np.float32),
            np.float32(2.5),                                           # 0-d
            rng.random((2, 2), dtype=np.float32),                      # already <f4
        ]
        write_container(tmp_path / "new.bin", b"CNLTEST1", {"n": 7}, tensors)
        reference_write_container(tmp_path / "old.bin", b"CNLTEST1", {"n": 7}, tensors)
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()

        net = Network.build([LayerSpec.conv(2, 3), LayerSpec.flatten(),
                             LayerSpec.dense(3)], (6, 6, 1), seed=0)
        ds = generate_synthetic(2, 3, 8, seed=1)
        wide = SyntheticDataset(ds.classes, {c: np.asfortranarray(s.astype(np.float64))
                                             for c, s in ds.images.items()},
                                ds.image_side, ds.per_class, ds.seed)
        cases = [(checkpoint_save, net), (checkpoint_save, net.astype(np.float64)),
                 (save_dataset, ds), (save_dataset, wide)]
        for i, (save, obj) in enumerate(cases):
            save(obj, tmp_path / f"new{i}")
            with monkeypatch.context() as m:
                m.setattr(checkpoint_module, "write_container", reference_write_container)
                m.setattr(synthetic_module, "write_container", reference_write_container)
                save(obj, tmp_path / f"old{i}")
            assert (tmp_path / f"new{i}").read_bytes() == \
                (tmp_path / f"old{i}").read_bytes()
