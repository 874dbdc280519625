"""Layer specifications and the forward/backward kernels behind them.

All kernels are pure functions over numpy arrays, and every kernel and
network takes batches.  Images and feature maps are channels-last,
``[n, h, w, c]``; dense activations are ``[n, d]``.  Convolutions are
"valid" (no padding), so output sides are ``floor((s - k) / stride) + 1``.

Each layer kind has one entry in ``KINDS`` (at the end of this module):
its serialised fields, their defaults, its shape rules and its forward
and backward steps.  The steps call the kernels by their module-level
names at call time, so rebinding ``layers.conv2d`` (as a tracer does)
reaches every network.

The steps take every axis before a layer's per-sample axes as a batch
axis.  A stack of networks (``network.stack``) holds its parameters with
a leading stack axis and its activations as ``[stack, n, *sample]``.
Conv2D builds one column matrix over the whole stack and runs one
batched matrix product each for its output, kernel gradient and column
gradient (``_conv2d``, ``_conv2d_backward``); Dense is one batched
product (``_dense``, ``_dense_backward``).  These are private because
readers of the public kernels' arguments (perfbench's layer metrics)
take them for one network's.  A batched product runs one GEMM per
network with the shapes that network has alone, so each network's slice
has the bits it would have alone.

A forward step learns whether a backward step follows.  If one does, it
keeps what that step reads: a Conv2D's column matrix, which
``conv2d_backward`` then takes instead of building it again, and a max
pool's argmax.  An inference forward computes no argmax and drops each
column matrix when its step returns.  Both give the same outputs.
"""

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeMismatchError


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


_COUNT = (_is_count, "an int >= 1")
# every serialised field: (check, what a valid value is)
FIELD_CHECKS = {
    "filters": _COUNT, "units": _COUNT, "stride": _COUNT,
    "kernel": (lambda v: isinstance(v, tuple) and len(v) == 2
               and all(map(_is_count, v)), "two ints >= 1"),
    "frozen": (lambda v: isinstance(v, bool), "a bool"),
}


@dataclass(frozen=True)
class LayerSpec:
    """Architecture description of one layer.

    ``kernel`` is ``(kh, kw)`` for Conv2D/MaxPool2D, ``units`` the output
    width for Dense.  ``frozen`` excludes the layer's parameters from
    gradient updates.  A kind sets only the fields its ``KINDS`` entry
    lists; every other field keeps its default.
    """

    kind: str
    filters: int = 0
    kernel: tuple = ()
    stride: int = 1
    units: int = 0
    frozen: bool = False

    def __post_init__(self):
        kind = _kind(self.kind)
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in kind.fields:
                check, valid = FIELD_CHECKS[f.name]
                if not check(value):
                    raise ValueError(f"{self.kind} {f.name} must be {valid}, "
                                     f"got {value!r}")
            elif value != f.default:
                raise ValueError(f"{f.name} is meaningless for {self.kind}")

    @property
    def parameterized(self) -> bool:
        return KINDS[self.kind].weight_shape is not None

    # -- constructors ------------------------------------------------
    @staticmethod
    def conv(filters, kernel, stride=1, frozen=False):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        return LayerSpec("Conv2D", filters=filters, kernel=(kh, kw),
                         stride=stride, frozen=frozen)

    @staticmethod
    def maxpool(kernel, stride=None):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        return LayerSpec("MaxPool2D", kernel=(kh, kw),
                         stride=kh if stride is None else stride)

    @staticmethod
    def dense(units, frozen=False):
        return LayerSpec("Dense", units=units, frozen=frozen)

    @staticmethod
    def relu():
        return LayerSpec("ReLU")

    @staticmethod
    def softmax():
        return LayerSpec("Softmax")

    @staticmethod
    def flatten():
        return LayerSpec("Flatten")

    # -- serialization -----------------------------------------------
    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in KINDS[self.kind].fields:
            value = getattr(self, name)
            d[name] = list(value) if isinstance(value, tuple) else value
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        """Parse a layer dict, the form configs and checkpoints hold.

        A field the kind does not have, a missing required field or an
        ill-typed value raises ``ValueError``; absent optional fields
        take the kind's defaults.
        """
        kind = _kind(d["kind"])
        unknown = sorted(set(d) - {"kind", *kind.fields})
        missing = [f for f, default in kind.fields.items()
                   if default is None and f not in d]
        if unknown or missing:
            raise ValueError(f"{d['kind']} layer: unknown fields {unknown}, "
                             f"missing fields {missing}")
        spec = LayerSpec(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in d.items()})
        return replace(spec, **{f: default(spec) if callable(default) else default
                                for f, default in kind.fields.items()
                                if default is not None and f not in d})


# ---------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------

def _im2col(x, kh, kw, stride, h_out, w_out):
    """The column matrix of the windows of ``x``, ``[*stack, n, h, w, c_in]``.

    Returns ``[*stack, n*h_out*w_out, kh*kw*c_in]``: row ``(b, y, x)``
    holds the window at output position ``(y, x)`` of image ``b``, its
    columns in ``(i, j, c)`` order, so that the convolution is
    ``cols @ kernels.reshape(kh*kw*c_in, c_out)``.  For a 1x1 stride-1
    kernel the rows are ``x``'s pixels: a plain reshape, a view of a
    contiguous ``x``, with no strided view built.  A single-channel
    input is copied one window position at a time, from the strided
    slice holding that element of every window: the general strided
    view's contiguous runs would be only ``kw`` floats long.
    """
    h, w, c_in = x.shape[-3:]
    # the strided view below reads whatever memory its shape reaches
    if (h_out, w_out) != ((h - kh) // stride + 1, (w - kw) // stride + 1):
        raise ShapeMismatchError(
            f"{h_out}x{w_out} outputs do not match {kh}x{kw} windows at "
            f"stride {stride} over input {x.shape}")
    shape = (*x.shape[:-4], x.shape[-4] * h_out * w_out, kh * kw * c_in)
    if (kh, kw, stride) == (1, 1, 1):
        return x.reshape(shape)
    if c_in == 1:
        cols = np.empty((*x.shape[:-3], h_out, w_out, kh * kw), x.dtype)
        for t, sl in enumerate(_window_slices((kh, kw), stride, h_out, w_out)):
            cols[..., t:t + 1] = x[sl]
        return cols.reshape(shape)
    *lead, sh, sw, sc = x.strides
    windows = as_strided(x, (*x.shape[:-3], h_out, w_out, kh, kw, c_in),
                         (*lead, stride * sh, stride * sw, sh, sw, sc),
                         writeable=False)
    return windows.reshape(shape)


def conv2d(image, kernels, stride=1, return_cols=False):
    """Valid 2-D cross-correlation, as one matrix product over ``_im2col``.

    ``image`` is a batch ``[n, h, w, c_in]``; ``kernels`` is ``[kh, kw,
    c_in, c_out]``.  Output sides are ``floor((s - k) / stride) + 1``.
    With ``return_cols`` it returns ``(output, columns)``, the column
    matrix ``conv2d_backward`` takes instead of building it again.
    """
    x = np.asarray(image)
    k = np.asarray(kernels)
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d expects image [n,h,w,c] and kernels "
            f"[kh,kw,c_in,c_out], got {x.shape} and {k.shape}")
    h, w, c_in = x.shape[1:]
    kh, kw, kc_in, _ = k.shape
    if kc_in != c_in or kh > h or kw > w:
        raise ShapeMismatchError(f"kernels {k.shape} do not fit input {x.shape}")
    out, cols = _conv2d(x, k, stride)
    return (out, cols) if return_cols else out


def _conv2d(x, kernels, stride):
    """``conv2d`` of ``[*stack, n, h, w, c_in]`` by ``[*stack, kh, kw,
    c_in, c_out]``, with its column matrix: one column matrix over the
    whole stack and one batched product, which runs each network's GEMM
    with the shapes it has alone."""
    kh, kw, c_in, c_out = kernels.shape[-4:]
    h, w = x.shape[-3:-1]
    h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = _im2col(x, kh, kw, stride, h_out, w_out)
    out = cols @ kernels.reshape(*kernels.shape[:-4], kh * kw * c_in, c_out)
    return out.reshape(*x.shape[:-3], h_out, w_out, c_out), cols


def conv2d_backward(x, kernels, dout, stride=1, need_dx=True, cols=None):
    """Gradients of ``conv2d`` w.r.t. kernels and (optionally) input.

    With ``dout`` as ``[n*h_out*w_out, c_out]`` rows and
    ``K = kernels.reshape(kh*kw*c_in, c_out)``, the kernel gradient is
    ``_im2col(x).T @ dout``; ``cols``, the columns ``conv2d`` returned
    for ``x``, stands in for ``_im2col(x)``.  The input gradient is the
    column-matrix gradient ``dout @ K.T`` folded back (col2im): each
    window element's ``(i, j)`` slice is added into the strided slice of a
    zero ``dx`` it was read from, in row-major ``(i, j)`` order.  A 1x1
    stride-1 kernel reads each pixel once, so there ``dx`` is the column
    gradient itself, plus 0: adding 0 turns a -0 into +0, as the sum into
    zeros does.
    """
    return _conv2d_backward(x, kernels, dout, stride, need_dx, cols)


def _conv2d_backward(x, kernels, dout, stride, need_dx, cols=None):
    """``conv2d_backward`` over leading stack axes, as ``_conv2d``: one
    column matrix, a batched product each for the kernel and column
    gradients, and one col2im loop."""
    kh, kw, c_in, c_out = kernels.shape[-4:]
    stack = kernels.shape[:-4]
    h_out, w_out = dout.shape[-3:-1]
    d2 = dout.reshape(*stack, -1, c_out)
    if cols is None:
        cols = _im2col(x, kh, kw, stride, h_out, w_out)
    dk = (cols.swapaxes(-1, -2) @ d2).reshape(kernels.shape)
    if not need_dx:
        return None, dk
    dcols = d2 @ kernels.reshape(*stack, kh * kw * c_in, c_out).swapaxes(-1, -2)
    if (kh, kw, stride) == (1, 1, 1):
        return np.add(dcols, 0, dtype=x.dtype).reshape(x.shape), dk
    dcols = dcols.reshape(*dout.shape[:-1], kh, kw, c_in)
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            dx[..., i:i + stride * h_out:stride,
               j:j + stride * w_out:stride, :] += dcols[..., i, j, :]
    return dx, dk


# ---------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _window_slices(kernel, stride, h_out, w_out):
    """For each flat window position ``t = i * kw + j``, the strided slice
    of a ``[..., h, w, c]`` input that holds element (i, j) of every
    window."""
    kh, kw = kernel
    return tuple((Ellipsis, slice(i, i + stride * (h_out - 1) + 1, stride),
                  slice(j, j + stride * (w_out - 1) + 1, stride), slice(None))
                 for i in range(kh) for j in range(kw))


def maxpool2d(x, kernel, stride, need_idx=True):
    """Max pooling over ``[..., h, w, c]``. Returns (output, argmax indices),
    the indices None unless ``need_idx``.

    A running maximum over the kh*kw strided slices of ``x``; no window
    is copied.  The index of a window is the flat position of its first
    maximum, as ``argmax`` gives it, and a NaN in a window propagates.
    Only ``maxpool2d_backward`` reads the index, so a forward that no
    backward follows skips it; the output is the same either way.

    The index is kept without a data-dependent branch: at position t,
    ``max(idx, t * (s > out))`` sets t exactly where ``s > out``, because
    every earlier position is smaller than t.  numpy's masked calls
    (``putmask``, ``where``, ``copyto(where=)``) branch per element and
    cost several times more on the random masks pooling makes.  The
    index is one byte wide while the positions fit one, and is widened
    to ``intp`` once, at the end.
    """
    kh, kw = kernel
    h, w = x.shape[-3:-1]
    if kh > h or kw > w:
        raise ShapeMismatchError(f"pool window {kernel} exceeds input {x.shape}")
    slices = _window_slices(kernel, stride, (h - kh) // stride + 1,
                            (w - kw) // stride + 1)
    out = x[slices[0]].copy()
    if not need_idx:
        for sl in slices[1:]:
            np.maximum(x[sl], out, out=out)
        return out, None
    idx = np.zeros(out.shape, dtype=np.uint8 if len(slices) <= 256 else np.intp)
    position = idx.dtype.type
    for t, sl in enumerate(slices[1:], start=1):
        s = x[sl]
        # strictly greater: the first max wins
        np.maximum(idx, (s > out).view(np.uint8) * position(t), out=idx)
        np.maximum(s, out, out=out)
    return out, idx.astype(np.intp, copy=False)


def maxpool2d_backward(x_shape, idx, dout, kernel, stride):
    """Add pooled gradients back at the argmax positions.

    Windows overlap when stride < kernel.  Visiting the window positions
    in reverse adds each input cell's shares in the order ``np.add.at``
    over the windows would, so the sums are the same to the last bit.

    Each position adds ``dout * (idx == t)``, with no masked select.  For
    a finite ``dout`` that is bitwise the select: off the argmax it adds
    +0 or -0, and a cell of ``dx`` starts at +0 and is never -0, so
    adding either zero leaves its bits as they are.  An infinite or NaN
    ``dout`` would spread NaN (inf * 0) across its window; ``backward``
    in ``network`` raises on a non-finite delta before a layer below
    receives it, so the engine never passes one here.
    """
    dx = np.zeros(x_shape, dtype=dout.dtype)
    slices = _window_slices(kernel, stride, *dout.shape[-3:-1])
    for t in range(len(slices) - 1, -1, -1):
        dx[slices[t]] += dout * (idx == t)
    return dx


# ---------------------------------------------------------------------
# Dense / activations
# ---------------------------------------------------------------------

def dense(x, w, b):
    if x.shape[-1] != w.shape[-2]:
        raise ShapeMismatchError(
            f"dense input {x.shape} does not match weights {w.shape}")
    return _dense(x, w, b)


def _dense(x, w, b):
    """``dense`` of ``[*stack, n, d_in]`` by ``[*stack, d_in, d_out]``."""
    y = x @ w
    y += b[..., None, :]
    return y


def dense_backward(x, w, dout):
    return _dense_backward(x, w, dout)


def _dense_backward(x, w, dout):
    dw = x.swapaxes(-1, -2) @ dout
    db = dout.sum(axis=-2)
    dx = dout @ w.swapaxes(-1, -2)
    return dx, dw, db


def relu(x):
    return np.maximum(x, 0)


def relu_backward(x, dout):
    return dout * (x > 0)


def softmax(x):
    """Row-wise softmax over ``[..., d]``; rows sum to 1."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y, dout):
    # y is the softmax output; dL/dx_i = y_i * (dout_i - sum_j dout_j y_j)
    inner = (dout * y).sum(axis=-1, keepdims=True)
    return y * (dout - inner)


# ---------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class LayerKind:
    """Everything one layer kind means, in one place.

    ``forward(spec, params, x, lead, train)`` returns ``(y, cache)``, where
    the first ``lead`` axes of ``x`` are batch axes (a stack's axes, then
    the sample axis) and ``cache`` is what the backward step reads (a
    Conv2D's column matrix, a max pool's argmax), or None unless ``train``
    says that a backward step follows.  ``backward(spec, params, x, y,
    cache, dy, need_dx)`` returns ``(dx, grads)``, where ``grads`` is
    ``{"W", "b"}`` or None for a kind without parameters, and ``dx`` may
    be None when ``need_dx`` is false.
    """
    forward: Callable
    backward: Callable
    # serialised fields besides "kind", in order: name -> default, which
    # is None for a required field or may be a function of the spec
    fields: dict = field(default_factory=dict)
    rank: int | None = None       # input rank it needs; None takes any
    out_shape: Callable = lambda spec, shape: shape
    weight_shape: Callable | None = None  # None: no parameters
    # (forward, backward): whether the step's output is finite whenever
    # its input is, for the backward step the input gradient of a finite
    # ``dy``; a check of such an output can never fire
    keeps_finite: Callable = lambda spec: (False, False)


def _kind(name) -> LayerKind:
    if name not in KINDS:
        raise ValueError(f"unknown layer kind {name!r}")
    return KINDS[name]


def _window_out(spec, shape, depth):
    (h, w), (kh, kw) = shape[:2], spec.kernel
    return (h - kh) // spec.stride + 1, (w - kw) // spec.stride + 1, depth


def _stacked(p) -> bool:
    """Whether ``p`` holds a stack of networks' parameters (biases are
    1-D for one network)."""
    return p["b"].ndim > 1


def _conv_step_forward(spec, p, x, lead, train):
    if _stacked(p):
        y, cols = _conv2d(x, p["W"], spec.stride)
    else:
        y, cols = conv2d(x, p["W"], spec.stride, return_cols=True)
    # the bias is added over rows of w*c values, the bias tiled w times: the
    # same float32 sums as over [..., w, c], in loops w times longer; y is
    # the product's fresh contiguous output, so the reshape is a view.  At
    # w == 1 the rows are the channels, and tiling would only cost a copy
    b, (w, c) = p["b"], y.shape[-2:]
    if w == 1:
        y += b[..., None, None, None, :]
    else:
        rows = y.reshape(*y.shape[:-2], w * c)
        rows += b[..., None, :].repeat(w, axis=-2).reshape(*b.shape[:-1], 1, 1, w * c)
    return y, cols if train else None


def _conv_step_backward(spec, p, x, y, cache, dy, need_dx):
    dx, dw = (_conv2d_backward if _stacked(p) else conv2d_backward)(
        x, p["W"], dy, spec.stride, need_dx, cache)
    return dx, {"W": dw, "b": dy.sum(axis=(-4, -3, -2))}


def _dense_step_forward(spec, p, x, lead, train):
    return (_dense if _stacked(p) else dense)(x, p["W"], p["b"]), None


def _dense_step_backward(spec, p, x, y, cache, dy, need_dx):
    dx, dw, db = (_dense_backward if _stacked(p) else dense_backward)(x, p["W"], dy)
    return dx, {"W": dw, "b": db}


KINDS = {
    "Conv2D": LayerKind(
        forward=_conv_step_forward,
        backward=_conv_step_backward,
        fields={"filters": None, "kernel": None, "stride": 1, "frozen": False},
        rank=3,
        out_shape=lambda spec, shape: _window_out(spec, shape, spec.filters),
        weight_shape=lambda spec, shape: (*spec.kernel, shape[2], spec.filters)),
    "MaxPool2D": LayerKind(
        forward=lambda spec, p, x, lead, train: maxpool2d(
            x, spec.kernel, spec.stride, train),
        backward=lambda spec, p, x, y, cache, dy, need_dx: (maxpool2d_backward(
            x.shape, cache, dy, spec.kernel, spec.stride), None),
        fields={"kernel": None, "stride": lambda spec: spec.kernel[0]}, rank=3,
        out_shape=lambda spec, shape: _window_out(spec, shape, shape[2]),
        # overlapping windows sum gradients, and a sum can overflow
        keeps_finite=lambda spec: (True, spec.stride >= max(spec.kernel))),
    "Dense": LayerKind(
        forward=_dense_step_forward,
        backward=_dense_step_backward,
        fields={"units": None, "frozen": False}, rank=1,
        out_shape=lambda spec, shape: (spec.units,),
        weight_shape=lambda spec, shape: (shape[0], spec.units)),
    "ReLU": LayerKind(
        forward=lambda spec, p, x, lead, train: (relu(x), None),
        backward=lambda spec, p, x, y, cache, dy, need_dx: (relu_backward(x, dy), None),
        keeps_finite=lambda spec: (True, True)),
    "Softmax": LayerKind(
        forward=lambda spec, p, x, lead, train: (softmax(x), None),
        backward=lambda spec, p, x, y, cache, dy, need_dx: (softmax_backward(y, dy), None),
        rank=1),
    "Flatten": LayerKind(
        forward=lambda spec, p, x, lead, train: (
            x.reshape(*x.shape[:lead], prod(x.shape[lead:])), None),
        backward=lambda spec, p, x, y, cache, dy, need_dx: (dy.reshape(x.shape), None),
        out_shape=lambda spec, shape: (prod(shape),),
        keeps_finite=lambda spec: (True, True)),
}
