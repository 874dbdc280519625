"""The outside-in tracer patches every binding and restores each one."""

import sys
import threading

import numpy as np

from tracer import TARGETS, Tracer


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "cactusnet" or name.startswith("cactusnet."))
            for attr, value in vars(module).items() if callable(value)}


def _tiny_net():
    from cactusnet.nn import LayerSpec, Network
    return Network.build([LayerSpec.conv(4, 3), LayerSpec.relu(),
                          LayerSpec.flatten(), LayerSpec.dense(2)], (6, 6, 1), seed=1)


def test_install_patches_every_module_that_binds_a_target():
    import cactusnet.applicability as app
    import cactusnet.nn as nn
    import cactusnet.nn.network as network
    import cactusnet.runner as runner
    original = network.forward
    with Tracer() as tracer:
        for module in (network, nn, app, runner):
            assert module.forward is not original
            assert module.forward.__wrapped__ is original
        patched = set(tracer.bindings)
    assert {("cactusnet.applicability", "forward"), ("cactusnet.runner", "forward"),
            ("cactusnet.cactus", "forward"), ("cactusnet.predictor", "backward"),
            ("cactusnet.nn.network", "forward")} <= patched
    assert {span_name.split(".")[0] for _, _, span_name, _ in TARGETS} == {
        "data", "nn", "applicability", "predictor", "cactus", "runner"}


def test_uninstall_restores_every_binding():
    import cactusnet.cli  # noqa: F401 - load every binder before the snapshot
    import cactusnet.runner  # noqa: F401
    before = _bindings()
    tracer = Tracer().install()
    assert _bindings() != before
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_per_thread():
    from cactusnet.nn import network
    net = _tiny_net()
    x = np.zeros((3, 6, 6, 1), dtype=np.float32)
    with Tracer() as tracer:
        worker = threading.Thread(target=network.predict, args=(net, x))
        worker.start()
        network.predict(net, x)
        worker.join(timeout=30)
    assert not worker.is_alive()
    spans = {s[0]: s for s in tracer.spans}
    assert len({s[4] for s in spans.values()}) == 2
    for sid, name, start, end, tid, parent, _ in spans.values():
        assert start <= end
        if parent is None:
            assert name == "nn.network.predict"
        else:
            assert spans[parent][4] == tid
            assert spans[parent][2] <= start and end <= spans[parent][3]
    forwards = [s for s in spans.values() if s[1] == "nn.network.forward"]
    assert len(forwards) == 2
    assert all(spans[s[5]][1] == "nn.network.predict" and s[6] == {"rows": 3}
               for s in forwards)
    assert sum(s[1] == "nn.layers.conv2d" for s in spans.values()) == 2


def test_dump_writes_one_json_line_per_span(tmp_path):
    from cactusnet.nn import network
    from tracer import load_spans
    with Tracer() as tracer:
        network.forward(_tiny_net(), np.zeros((2, 6, 6, 1), dtype=np.float32))
    tracer.dump(tmp_path / "spans.jsonl")
    spans = load_spans(tmp_path / "spans.jsonl")
    assert [s[0] for s in spans] == sorted(s[0] for s in tracer.spans)
    assert spans[0][1] == "nn.network.forward"
