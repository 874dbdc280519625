"""Networks: ordered layer stacks with snapshot semantics.

A ``Network`` is immutable once built.  Training steps return a new
snapshot that shares the parameter arrays of untouched (e.g. frozen)
layers, so concurrent readers of an old snapshot are always safe.

``stack`` joins networks of one architecture into one whose parameters
carry a leading stack axis; the same forward, backward and SGD steps
then train every member at once, each on its own batches.
"""

from copy import copy
from dataclasses import dataclass, replace
from math import prod, sqrt

import numpy as np

from ..errors import (NumericFailureError, ShapeMismatchError,
                      UnsupportedArchitectureError)
from ..seeding import rng_for
from . import layers as L
from .layers import LayerSpec

LOSS_KINDS = ("CrossEntropy", "MSE")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    def with_seed(self, seed: int) -> "TrainConfig":
        return TrainConfig(self.learning_rate, self.epochs, self.batch_size, seed)


def output_shapes(specs, input_shape):
    """Per-layer output shapes for a conforming input of ``input_shape``."""
    shapes = []
    cur = tuple(input_shape)
    for i, spec in enumerate(specs):
        kind = L.KINDS[spec.kind]
        if kind.rank is not None and len(cur) != kind.rank:
            raise ShapeMismatchError(
                f"layer {i} ({spec.kind}) expects rank-{kind.rank} input, "
                f"got shape {cur}")
        if spec.kernel and (spec.kernel[0] > cur[0] or spec.kernel[1] > cur[1]):
            raise ShapeMismatchError(
                f"layer {i} ({spec.kind}): window {spec.kernel} exceeds input {cur}")
        cur = kind.out_shape(spec, cur)
        shapes.append(cur)
    return shapes


def param_shapes(specs, input_shape):
    """Per-layer ``{"W": shape, "b": shape}``, or None for a layer
    without parameters."""
    in_shapes = [tuple(input_shape)] + output_shapes(specs, input_shape)[:-1]
    out = []
    for spec, in_shape in zip(specs, in_shapes):
        w = spec.parameterized and L.KINDS[spec.kind].weight_shape(spec, in_shape)
        out.append({"W": w, "b": w[-1:]} if w else None)
    return out


def _init_params(shape, rng, dtype):
    """Glorot-uniform weights of ``shape``, zero biases."""
    window = prod(shape[:-2])  # kh * kw for a Conv2D, 1 for a Dense
    fan_in, fan_out = window * shape[-2], window * shape[-1]
    s = sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-s, s, size=shape).astype(dtype)
    return {"W": w, "b": np.zeros(shape[-1], dtype=dtype)}


class Network:
    """Ordered layer stack with per-layer parameters and freeze flags."""

    def __init__(self, specs, input_shape, params):
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        self.params = tuple(params)
        self.shapes = output_shapes(self.specs, self.input_shape)
        # the leading parameter axes of a stack of networks (``stack``);
        # () for one network
        self.stack = next((p["b"].shape[:-1] for p in self.params if p is not None), ())

    @classmethod
    def build(cls, specs, input_shape, seed, dtype=np.float32):
        """Initialize a network deterministically from ``seed``."""
        specs, rng = tuple(specs), rng_for(seed)
        params = [None if shapes is None else _init_params(shapes["W"], rng, dtype)
                  for shapes in param_shapes(specs, input_shape)]
        return cls(specs, input_shape, params)

    # -- small accessors ----------------------------------------------
    @property
    def layer_count(self) -> int:
        return len(self.specs)

    @property
    def output_shape(self):
        return self.shapes[-1]

    def param_layers(self):
        return [i for i, s in enumerate(self.specs) if s.parameterized]

    def unfrozen_param_layers(self):
        return [i for i, s in enumerate(self.specs)
                if s.parameterized and not s.frozen]

    def astype(self, dtype) -> "Network":
        return self.with_params([None if p is None else
                                 {k: v.astype(dtype) for k, v in p.items()}
                                 for p in self.params])

    def with_params(self, params) -> "Network":
        """The same layers with new parameters of the same shapes.  Specs,
        input shape and stack are unchanged, so the shape list carries
        over."""
        net = copy(self)
        net.params = tuple(params)
        return net

    def _normalize_batch(self, batch):
        """``batch`` as an array, checked to be ``[*stack, n, *input_shape]``."""
        x = np.asarray(batch)
        stack = self.stack
        if (x.shape[:len(stack)] != stack
                or x.shape[len(stack) + 1:] != self.input_shape):
            raise ShapeMismatchError(
                f"batch shape {x.shape} does not conform to "
                f"network input {self.input_shape}"
                + (f" stacked {stack}" if stack else ""))
        return x


def forward(net: Network, batch, taps=None) -> list:
    """Run the batch through the network for inference; returns the
    output of each layer in ``taps`` (default: every layer), in order.

    Only the requested outputs are kept: every other layer's output is
    dropped once the next layer has read it, and max pooling keeps no
    argmax.
    """
    taps = range(net.layer_count) if taps is None else taps
    if not set(taps) <= set(range(net.layer_count)):
        raise ShapeMismatchError(
            f"taps {sorted(taps)} are not all layers of a "
            f"{net.layer_count}-layer network")
    acts = _run_layers(net, net._normalize_batch(batch), set(taps))[0]
    return [acts[t] for t in taps]


def predict(net: Network, batch):
    """Network output for a batch: an inference forward that keeps only
    the current activation."""
    return forward(net, batch, [net.layer_count - 1])[0]


def _run_layers(net: Network, x, keep, train_from=None):
    """The forward loop behind ``forward`` and ``backward``: the outputs
    of the layers in ``keep``, as index -> activation, and the caches of
    the layers from ``train_from`` on, the ones a backward pass visits
    (``LayerKind``), as index -> cache.  Raises at the first layer whose
    output is not finite.

    Every layer's input but the batch has been found finite, so the
    check is skipped after layer 0 where the kind keeps finite inputs
    finite (``keeps_finite``): it could not fire there.
    """
    acts, caches = {}, {}
    lead = x.ndim - len(net.input_shape)
    train_from = net.layer_count if train_from is None else train_from
    for i, (spec, p) in enumerate(zip(net.specs, net.params)):
        kind = L.KINDS[spec.kind]
        x, cache = kind.forward(spec, p, x, lead, i >= train_from)
        if (i == 0 or not kind.keeps_finite(spec)[0]) and not np.isfinite(x).all():
            raise NumericFailureError(
                f"non-finite activation at layer {i} ({spec.kind})",
                layer_index=i)
        if i in keep:
            acts[i] = x
        if i >= train_from:
            caches[i] = cache
    return acts, caches


def _loss_and_delta(net, output, targets, loss_kind):
    """Loss (one per stacked network) and its gradient at the output."""
    t = np.asarray(targets)
    if t.shape != output.shape:
        raise ShapeMismatchError(
            f"targets {t.shape} do not match output {output.shape}")
    sample_axis = len(net.stack)
    n = output.shape[sample_axis]
    if loss_kind == "MSE":
        diff = output - t
        per_net = tuple(range(sample_axis, diff.ndim))
        loss = np.mean(diff.astype(np.float64) ** 2, axis=per_net)
        return loss, (2.0 / prod(diff.shape[sample_axis:])) * diff, False
    if loss_kind == "CrossEntropy":
        p = np.clip(output, 1e-12, None)
        loss = -np.mean(np.sum(t * np.log(p.astype(np.float64)), axis=-1), axis=-1)
        if net.specs[-1].kind == "Softmax":
            # fused softmax + cross-entropy gradient at the softmax input
            return loss, (output - t) / n, True
        return loss, -(t / p) / n, False
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def backward(net: Network, batch, targets, loss_kind="CrossEntropy"):
    """Loss and parameter gradients for unfrozen layers.

    Returns ``(grads, loss)`` where ``grads`` maps layer index to
    ``{"W": ..., "b": ...}`` and a stack's loss holds one value per
    network.  Backpropagation stops as soon as no unfrozen parameterized
    layer remains below the current depth.

    The delta below each layer is checked for finiteness, except where
    the kind keeps a finite delta finite (``keeps_finite``) and the delta
    it read was checked: every layer's but the first visited, which reads
    the loss gradient.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    x = net._normalize_batch(batch)
    last = net.layer_count - 1
    # the layers backpropagation visits, down to the lowest trainable one,
    # keep their caches; the outputs from the one below it on are read
    lowest = min(net.unfrozen_param_layers(), default=last + 1)
    acts, caches = _run_layers(net, x, range(max(lowest - 1, 0), last + 1), lowest)

    loss, delta, fused = _loss_and_delta(net, acts[last], targets, loss_kind)
    if not np.isfinite(loss).all():
        raise NumericFailureError("non-finite loss", layer_index=last)

    grads = {}
    if lowest > last:
        return grads, loss

    start = last
    if fused:
        start -= 1  # delta already sits at the softmax input
    for i in range(start, -1, -1):
        spec = net.specs[i]
        kind = L.KINDS[spec.kind]
        # frozen layers pass the gradient through; their own is dropped.
        # No layer below reads this layer's output or cache.
        delta, g = kind.backward(
            spec, net.params[i], acts[i - 1] if i else x, acts.pop(i),
            caches.pop(i), delta, i > lowest)
        if g is not None and not spec.frozen:
            for v in g.values():
                if not np.isfinite(v).all():
                    raise NumericFailureError(
                        f"non-finite gradient at layer {i} ({spec.kind})",
                        layer_index=i)
            grads[i] = g
        if i == lowest:
            break
        if ((i == start or not kind.keeps_finite(spec)[1])
                and not np.isfinite(delta).all()):
            raise NumericFailureError(
                f"non-finite delta below layer {i} ({spec.kind})", layer_index=i)
    return grads, loss


def sgd_step(net: Network, grads, cfg: TrainConfig) -> Network:
    """One plain-SGD update; frozen layers are carried over untouched."""
    lr = cfg.learning_rate
    new_params = list(net.params)
    for i in net.unfrozen_param_layers():
        if i not in grads:
            continue
        p, g = net.params[i], grads[i]
        for key in ("W", "b"):
            if g[key].shape != p[key].shape:
                raise ShapeMismatchError(
                    f"gradient {g[key].shape} does not match parameter "
                    f"{p[key].shape} at layer {i}")
        new_params[i] = {k: p[k] - lr * g[k] for k in ("W", "b")}
    return net.with_params(new_params)


def stack(nets) -> Network:
    """One network holding ``nets``' parameters along a new leading axis.

    The networks share one architecture.  The stack takes batches
    ``[len(nets), n, *input_shape]``, and slice ``j`` of each of its
    activations, gradients and SGD steps has the bits ``nets[j]`` would
    compute alone (see ``layers``).
    """
    first = nets[0]
    for net in nets:
        if (net.specs, net.input_shape) != (first.specs, first.input_shape):
            raise ShapeMismatchError("stacked networks differ in architecture")
    params = [None if p is None else
              {k: np.stack([net.params[i][k] for net in nets]) for k in p}
              for i, p in enumerate(first.params)]
    return Network(first.specs, first.input_shape, params)


def freeze_through(net: Network, layer_index: int) -> Network:
    """Freeze every parameterized layer at index <= ``layer_index``."""
    specs = [replace(s, frozen=True) if s.parameterized and i <= layer_index
             else s for i, s in enumerate(net.specs)]
    return Network(specs, net.input_shape, net.params)


def split_at(net: Network, layer_index: int):
    """Split into (layers[0..i], layers[i+1..]) as two networks.

    The sweep trains only the suffix of a network frozen through layer
    i; the prefix output of each image stack is computed once per sweep
    (``applicability.TapFeatures``) and read by every job, which changes
    no arithmetic because frozen layers never move.
    """
    if not 0 <= layer_index < net.layer_count - 1:
        raise ShapeMismatchError(
            f"cannot split a {net.layer_count}-layer network at {layer_index}")
    prefix = Network(net.specs[:layer_index + 1], net.input_shape,
                     net.params[:layer_index + 1])
    suffix = Network(net.specs[layer_index + 1:], net.shapes[layer_index],
                     net.params[layer_index + 1:])
    return prefix, suffix


def head_index(net: Network) -> int:
    """Index of the final Dense layer, which may be followed by Softmax."""
    idx = net.layer_count - 1
    if net.specs[idx].kind == "Softmax":
        idx -= 1
    if idx < 0 or net.specs[idx].kind != "Dense":
        raise UnsupportedArchitectureError(
            "replace_head needs a final Dense layer (optionally + Softmax), "
            f"got {[s.kind for s in net.specs]}")
    return idx


def replace_head(net: Network, num_outputs: int, seed: int) -> Network:
    """Swap the final Dense block for a fresh one of width ``num_outputs``.

    The final layer must be Dense, optionally followed by Softmax; every
    earlier parameter tensor is carried over unchanged.
    """
    idx = head_index(net)
    in_shape = net.shapes[idx - 1] if idx > 0 else net.input_shape
    dtype = net.params[idx]["W"].dtype
    new_spec = LayerSpec.dense(num_outputs)
    specs = list(net.specs)
    specs[idx] = new_spec
    params = list(net.params)
    params[idx] = _init_params(param_shapes([new_spec], in_shape)[0]["W"],
                               rng_for(seed), dtype)
    return Network(specs, net.input_shape, params)


# ---------------------------------------------------------------------
# Training helpers
# ---------------------------------------------------------------------

def one_hot(labels, width):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], width), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def accuracy(net: Network, images, labels) -> float:
    pred = predict(net, images).argmax(axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def sgd_epochs(net: Network, x, targets, cfg: TrainConfig, loss_kind):
    """Minibatch SGD on ``(x, targets)``, each epoch a new permutation
    from ``cfg.seed``'s stream.  Yields each epoch's snapshot and the mean
    of its minibatch losses, each taken before that minibatch's step."""
    rng = rng_for(cfg.seed)
    n = x.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            grads, loss = backward(net, x[sel], targets[sel], loss_kind)
            net = sgd_step(net, grads, cfg)
            losses.append(loss)
        yield net, float(np.mean(losses))


def train_classifier(net: Network, images, labels, cfg: TrainConfig):
    """Minibatch SGD with cross-entropy; deterministic given ``cfg.seed``.

    Returns the trained snapshot and per-epoch ``(loss, accuracy)`` rows.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    targets = one_hot(labels, net.output_shape[0])
    history = []
    for epoch, (net, loss) in enumerate(
            sgd_epochs(net, images, targets, cfg, "CrossEntropy")):
        history.append({"epoch": epoch, "loss": loss,
                        "accuracy": accuracy(net, images, labels)})
    return net, history
