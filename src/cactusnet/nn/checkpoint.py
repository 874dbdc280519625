"""Binary network checkpoints in the ``cactusnet.fileio`` container.

The header holds the architecture, the input and parameter shapes and
an ``extra`` dict of caller metadata (predictor checkpoints, under their
own magic); the payload is the parameters in layer order, W before b.
"""

from ..fileio import read_container, write_container
from .layers import LayerSpec
from .network import Network, param_shapes

MAGIC = b"CNLCKPT1"


def checkpoint_save(net: Network, path, magic: bytes = MAGIC, extra: dict | None = None):
    """Write the network to ``path``; the round trip is bitwise exact."""
    header = {
        "input_shape": list(net.input_shape),
        "layers": [s.to_dict() for s in net.specs],
        "param_shapes": [
            None if p is None else {"W": list(p["W"].shape), "b": list(p["b"].shape)}
            for p in net.params
        ],
        "extra": extra or {},
    }
    write_container(path, magic, header,
                    [p[k] for p in net.params if p is not None for k in ("W", "b")])


def checkpoint_load(path) -> Network:
    """Load a network saved under ``MAGIC``; structured errors on bad
    magic or truncation."""
    net, _ = checkpoint_load_with_extra(path)
    return net


def _parse_header(header):
    specs = [LayerSpec.from_dict(d) for d in header["layers"]]
    input_shape = tuple(header["input_shape"])
    layout = header["param_shapes"]
    expected = param_shapes(specs, input_shape)
    found = [None if e is None else {k: tuple(e[k]) for k in ("W", "b")}
             for e in layout]
    if found != expected:
        raise ValueError(f"param_shapes {layout} do not match the layers, "
                         f"which need {expected}")
    shapes = [entry[k] for entry in layout if entry is not None for k in ("W", "b")]
    return (specs, input_shape, layout, header.get("extra", {})), shapes


def checkpoint_load_with_extra(path, magic: bytes = MAGIC):
    (specs, input_shape, layout, extra), tensors = read_container(
        path, magic, _parse_header)
    it = iter(tensors)
    params = [None if e is None else {"W": next(it), "b": next(it)} for e in layout]
    return Network(specs, input_shape, params), extra
