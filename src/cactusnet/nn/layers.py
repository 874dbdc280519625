"""Layer specifications and the forward/backward kernels behind them.

All kernels are pure functions over numpy arrays.  Images and feature
maps are channels-last: a single image is ``[h, w, c]``, a batch is
``[n, h, w, c]``; dense activations are ``[n, d]``.  Convolutions are
"valid" (no padding), so output sides are ``floor((s - k) / stride) + 1``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeMismatchError

KINDS = ("Conv2D", "MaxPool2D", "Dense", "ReLU", "Softmax", "Flatten")
PARAMETERIZED_KINDS = ("Conv2D", "Dense")


@dataclass(frozen=True)
class LayerSpec:
    """Architecture description of one layer.

    ``kernel`` is ``(kh, kw)`` for Conv2D/MaxPool2D, ``units`` the output
    width for Dense.  ``frozen`` excludes the layer's parameters from
    gradient updates and is only meaningful for Conv2D and Dense.
    """

    kind: str
    filters: int = 0
    kernel: tuple = ()
    stride: int = 1
    units: int = 0
    frozen: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "Conv2D":
            if self.filters < 1:
                raise ValueError("Conv2D needs filters >= 1")
            self._check_window()
        elif self.kind == "MaxPool2D":
            self._check_window()
        elif self.kind == "Dense":
            if self.units < 1:
                raise ValueError("Dense needs units >= 1")
        if self.frozen and not self.parameterized:
            raise ValueError(f"frozen is meaningless for {self.kind}")

    def _check_window(self):
        kh, kw = self.kernel
        if kh < 1 or kw < 1 or self.stride < 1:
            raise ValueError("kernel sides and stride must be >= 1")

    @property
    def parameterized(self) -> bool:
        return self.kind in PARAMETERIZED_KINDS

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

    def with_frozen(self, frozen: bool) -> "LayerSpec":
        return LayerSpec(self.kind, filters=self.filters, kernel=self.kernel,
                         stride=self.stride, units=self.units, frozen=frozen)

    # -- serialization -----------------------------------------------
    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "Conv2D":
            d.update(filters=self.filters, kernel=list(self.kernel),
                     stride=self.stride, frozen=self.frozen)
        elif self.kind == "MaxPool2D":
            d.update(kernel=list(self.kernel), stride=self.stride)
        elif self.kind == "Dense":
            d.update(units=self.units, frozen=self.frozen)
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        kind = d["kind"]
        if kind == "Conv2D":
            return LayerSpec.conv(d["filters"], tuple(d["kernel"]),
                                  d.get("stride", 1), d.get("frozen", False))
        if kind == "MaxPool2D":
            return LayerSpec.maxpool(tuple(d["kernel"]), d.get("stride"))
        if kind == "Dense":
            return LayerSpec.dense(d["units"], d.get("frozen", False))
        return LayerSpec(kind)


# ---------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------

def conv2d(image, kernels, stride=1):
    """Valid 2-D cross-correlation.

    ``image`` is ``[h, w, c_in]`` or a batch ``[n, h, w, c_in]``;
    ``kernels`` is ``[kh, kw, c_in, c_out]``.  Output sides are
    ``floor((s - k) / stride) + 1``.
    """
    x = np.asarray(image)
    k = np.asarray(kernels)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d expects image [h,w,c] or [n,h,w,c] and kernels "
            f"[kh,kw,c_in,c_out], got {np.asarray(image).shape} and {k.shape}")
    n, h, w, c_in = x.shape
    kh, kw, kc_in, c_out = k.shape
    if kc_in != c_in or kh > h or kw > w:
        raise ShapeMismatchError(
            f"kernels {k.shape} do not fit input {np.asarray(image).shape}")
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out = np.einsum("nhwcij,ijco->nhwo", windows, k)
    return out[0] if single else out


def conv2d_backward(x, kernels, dout, stride=1, need_dx=True):
    """Gradients of ``conv2d`` w.r.t. kernels and (optionally) input."""
    kh, kw, _, _ = kernels.shape
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    dk = np.einsum("nhwcij,nhwo->ijco", windows, dout)
    if not need_dx:
        return None, dk
    dx = np.zeros_like(x)
    h_out, w_out = dout.shape[1:3]
    for i in range(kh):
        for j in range(kw):
            contrib = np.einsum("nhwo,co->nhwc", dout, kernels[i, j])
            dx[:, i:i + stride * h_out:stride,
               j:j + stride * w_out:stride, :] += contrib
    return dx, dk


# ---------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------

def _window_slices(kernel, stride, h_out, w_out):
    """For each flat window position ``t = i * kw + j``, the strided slice
    of the input that holds element (i, j) of every window."""
    kh, kw = kernel
    return [(slice(None), slice(i, i + stride * (h_out - 1) + 1, stride),
             slice(j, j + stride * (w_out - 1) + 1, stride))
            for i in range(kh) for j in range(kw)]


def maxpool2d(x, kernel, stride):
    """Max pooling over ``[n, h, w, c]``. Returns (output, argmax indices).

    A running maximum over the kh*kw strided slices of ``x``; no window
    is copied.  The index of a window is the flat position of its first
    maximum, as ``argmax`` gives it, and a NaN in a window propagates.
    """
    kh, kw = kernel
    n, h, w, c = x.shape
    if kh > h or kw > w:
        raise ShapeMismatchError(f"pool window {kernel} exceeds input {x.shape}")
    slices = _window_slices(kernel, stride, (h - kh) // stride + 1,
                            (w - kw) // stride + 1)
    out = x[slices[0]].copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for t, sl in enumerate(slices[1:], start=1):
        s = x[sl]
        np.putmask(idx, s > out, t)  # strictly greater: the first max wins
        np.maximum(s, out, out=out)
    return out, idx


def maxpool2d_backward(x_shape, idx, dout, kernel, stride):
    """Add pooled gradients back at the argmax positions.

    Windows overlap when stride < kernel.  Visiting the window positions
    in reverse adds each input cell's shares in the order ``np.add.at``
    over the windows would, so the sums are the same to the last bit.
    """
    dx = np.zeros(x_shape, dtype=dout.dtype)
    slices = _window_slices(kernel, stride, *dout.shape[1:3])
    for t in range(len(slices) - 1, -1, -1):
        dx[slices[t]] += np.where(idx == t, dout, 0)
    return dx


# ---------------------------------------------------------------------
# Dense / activations
# ---------------------------------------------------------------------

def dense(x, w, b):
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(
            f"dense input {x.shape} does not match weights {w.shape}")
    return x @ w + b


def dense_backward(x, w, dout):
    dw = x.T @ dout
    db = dout.sum(axis=0)
    dx = dout @ w.T
    return dx, dw, db


def relu(x):
    return np.maximum(x, 0)


def relu_backward(x, dout):
    return dout * (x > 0)


def softmax(x):
    """Row-wise softmax over ``[n, d]``; rows sum to 1."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(y, dout):
    # y is the softmax output; dL/dx_i = y_i * (dout_i - sum_j dout_j y_j)
    inner = (dout * y).sum(axis=1, keepdims=True)
    return y * (dout - inner)
