"""Self time and computed kernel work on hand-built spans."""

import json
from pathlib import Path

import pytest

import layer_metrics as lm

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(sid, name, start, end, parent=None, tid=0, attrs=None):
    return (sid, name, start, end, tid, parent, attrs)


def test_self_time_subtracts_children_on_a_tree():
    spans = [span(0, "a", 0.0, 10.0),
             span(1, "b", 1.0, 4.0, parent=0),
             span(2, "c", 5.0, 9.0, parent=0),
             span(3, "d", 2.0, 3.0, parent=1),
             span(4, "e", 0.0, 6.0, tid=1)]
    assert lm.self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0, 4: 6.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "a", 0.0, 10.0),
             span(1, "b", 1.0, 4.0, parent=0),
             span(2, "c", 3.0, 6.0, parent=0)]
    assert lm.self_times(spans)[0] == pytest.approx(5.0)


def test_nested_same_name_span_is_one_call():
    spans = [span(0, "nn.checkpoint.checkpoint_load", 0.0, 2.0),
             span(1, "nn.checkpoint.checkpoint_load", 0.5, 1.5, parent=0),
             span(2, "nn.checkpoint.checkpoint_load", 3.0, 4.0)]
    m = lm.compute(spans)
    assert m["nn.checkpoint.checkpoint_load.calls"] == 2
    assert m["nn.checkpoint.checkpoint_load.self_s"] == pytest.approx(3.0)


def test_conv_forward_flops_follow_the_formula():
    attrs = {"x": [4, 20, 20, 1], "k": [3, 3, 1, 8], "stride": 1, "itemsize": 4}
    flops, nbytes = lm.kernel_work("conv2d", attrs)
    assert flops == 2 * 4 * 18 * 18 * 3 * 3 * 1 * 8
    assert nbytes == 4 * (4 * 20 * 20 + 3 * 3 * 8 + 4 * 18 * 18 * 8)
    back, _ = lm.kernel_work("conv2d_backward", dict(attrs, need_dx=False))
    assert back == flops
    back_dx, _ = lm.kernel_work("conv2d_backward", dict(attrs, need_dx=True))
    assert back_dx == 2 * flops


def test_dense_flops_follow_the_formula():
    attrs = {"x": [32, 128], "w": [128, 32], "itemsize": 4}
    assert lm.kernel_work("dense", attrs)[0] == 2 * 32 * 128 * 32
    assert lm.kernel_work("dense_backward", attrs)[0] == 4 * 32 * 128 * 32 + 32 * 32


def test_prefix_forwards_are_direct_children_of_jobs():
    job = {"tap": 5, "x": 1, "un_j": 7}
    spans = [span(0, "applicability.pair_separability", 0.0, 10.0, attrs=job)]
    spans += [span(1 + i, "nn.network.forward", i, i + 0.5, parent=0,
                   attrs={"rows": 30}) for i in range(4)]
    spans.append(span(5, "nn.network.predict", 6.0, 7.0, parent=0, attrs={"rows": 15}))
    spans.append(span(6, "nn.network.forward", 6.1, 6.9, parent=5, attrs={"rows": 15}))
    m = lm.compute(spans)
    assert m["applicability.prefix_forwards"] == 4
    assert m["applicability.prefix_rows"] == 120
    assert m["applicability.prefix_forward_s"] == pytest.approx(2.0)
    assert m["applicability.prefix_useful_ratio"] == pytest.approx(1.0)
    assert m["applicability.eval_s"] == pytest.approx(1.0)


def test_catalogue_matches_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b in lm.catalogue()]
    assert set(lm.compute([])) | {"trace.overhead_ratio"} == {
        n for n, _, _ in lm.catalogue()}
