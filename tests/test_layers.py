"""Layer kernels against independent oracles.

The convolution oracle is a direct quadruple loop; the gradient oracle
is central finite differences through the network's own forward pass.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from cactusnet.errors import NumericFailureError, ShapeMismatchError
from cactusnet.nn import LayerSpec, Network, backward, conv2d, forward
from cactusnet.nn import layers, network
from cactusnet.nn.layers import (conv2d_backward, maxpool2d, maxpool2d_backward,
                                 softmax)


def conv2d_loop_oracle(image, kernels, stride=1):
    """Direct-loop valid convolution, accumulated in float64."""
    h, w, c_in = image.shape
    kh, kw, _, c_out = kernels.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((ho, wo, c_out), dtype=np.float64)
    for oy in range(ho):
        for ox in range(wo):
            for ky in range(kh):
                for kx in range(kw):
                    for ci in range(c_in):
                        for co in range(c_out):
                            out[oy, ox, co] += (
                                float(image[oy * stride + ky, ox * stride + kx, ci])
                                * float(kernels[ky, kx, ci, co]))
    return out


class TestConv2d:
    # conv2d takes batches; each case is a batch of one image
    def test_identity_kernel(self):
        img = np.arange(9, dtype=np.float32).reshape(1, 3, 3, 1)
        k = np.ones((1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_array_equal(conv2d(img, k, 1), img)

    def test_zero_kernel_annihilates(self):
        rng = np.random.default_rng(0)
        img = rng.random((1, 5, 4, 2), dtype=np.float32)
        k = np.zeros((2, 2, 2, 3), dtype=np.float32)
        np.testing.assert_array_equal(conv2d(img, k, 1),
                                      np.zeros((1, 4, 3, 3), dtype=np.float32))

    def test_matches_loop_oracle_4x4(self):
        rng = np.random.default_rng(7)
        img = rng.random((4, 4, 1), dtype=np.float32)
        k = rng.random((2, 2, 1, 1), dtype=np.float32)
        got = conv2d(img[None], k, 1)
        want = conv2d_loop_oracle(img, k, 1)
        assert got.shape == (1, 3, 3, 1)
        np.testing.assert_allclose(got[0], want, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(2, 9, size=2)
        kh = int(rng.integers(1, h + 1))
        kw = int(rng.integers(1, w + 1))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        img = rng.standard_normal((h, w, c_in))
        k = rng.standard_normal((kh, kw, c_in, c_out))
        np.testing.assert_allclose(conv2d(img[None], k, stride)[0],
                                   conv2d_loop_oracle(img, k, stride),
                                   rtol=1e-6, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        img = np.zeros((1, 3, 3, 2), dtype=np.float32)
        k = np.zeros((2, 2, 1, 4), dtype=np.float32)
        with pytest.raises(ShapeMismatchError) as exc:
            conv2d(img, k)
        assert "(1, 3, 3, 2)" in str(exc.value) and "(2, 2, 1, 4)" in str(exc.value)

    def test_kernel_larger_than_input_rejected(self):
        img = np.zeros((1, 2, 2, 1), dtype=np.float32)
        k = np.zeros((3, 3, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeMismatchError):
            conv2d(img, k)


def einsum_conv2d(image, kernels, stride=1):
    """The window-view ``einsum`` convolution the GEMM kernel replaced."""
    kh, kw = kernels.shape[:2]
    windows = sliding_window_view(image, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return np.einsum("nhwcij,ijco->nhwo", windows, kernels)


def einsum_conv2d_backward(x, kernels, dout, stride=1):
    """The ``einsum`` kernel and input gradients the GEMM kernel replaced."""
    kh, kw = kernels.shape[:2]
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    dk = np.einsum("nhwcij,nhwo->ijco", windows, dout)
    dx = np.zeros_like(x)
    h_out, w_out = dout.shape[1:3]
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride, :] += (
                np.einsum("nhwo,co->nhwc", dout, kernels[i, j]))
    return dx, dk


def _close(got, want):
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


class TestConv2dGemmMatchesEinsum:
    """The im2col/col2im kernels against the einsum ones they replaced."""

    # (input [n, h, w, c_in], kernel (kh, kw), c_out, stride)
    CASES = {
        "20x20x1-8-3x3": ((16, 20, 20, 1), (3, 3), 8, 1),
        "9x9x8-16-3x3": ((16, 9, 9, 8), (3, 3), 16, 1),
        "3x3x16-32-3x3": ((16, 3, 3, 16), (3, 3), 32, 1),
        "9x9x8-32-1x1": ((16, 9, 9, 8), (1, 1), 32, 1),
        "4x4x32-64-1x1": ((16, 4, 4, 32), (1, 1), 64, 1),
        "2x2-stride-2": ((3, 8, 8, 2), (2, 2), 3, 2),
        "3x3-stride-2-overlapping": ((3, 9, 9, 2), (3, 3), 4, 2),
        "2x3-kernel": ((3, 7, 6, 3), (2, 3), 5, 1),
        "1x1-stride-2": ((3, 7, 7, 4), (1, 1), 5, 2),
    }

    @staticmethod
    def _arrays(shape, kernel, c_out, stride, seed=0):
        """Float32 input, kernels and output gradient at the scale a
        network sees: inputs in [0, 1) like images and ReLU outputs,
        Glorot-uniform kernels, and a batch-mean loss gradient."""
        rng = np.random.default_rng(seed)
        x = rng.random(shape, dtype=np.float32)
        window = kernel[0] * kernel[1]
        s = np.sqrt(6.0 / (window * (shape[3] + c_out)))
        k = rng.uniform(-s, s, (*kernel, shape[3], c_out)).astype(np.float32)
        h_out = (shape[1] - kernel[0]) // stride + 1
        w_out = (shape[2] - kernel[1]) // stride + 1
        dout = (rng.standard_normal((shape[0], h_out, w_out, c_out))
                / shape[0]).astype(np.float32)
        return x, k, dout

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_forward_and_gradients(self, case):
        shape, kernel, c_out, stride = case
        x, k, dout = self._arrays(shape, kernel, c_out, stride)
        _close(conv2d(x, k, stride), einsum_conv2d(x, k, stride))
        dx, dk = conv2d_backward(x, k, dout, stride)
        want_dx, want_dk = einsum_conv2d_backward(x, k, dout, stride)
        _close(dk, want_dk)
        _close(dx, want_dx)
        assert dx.dtype == x.dtype and dk.dtype == k.dtype

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_need_dx_false_returns_only_the_kernel_gradient(self, case):
        shape, kernel, c_out, stride = case
        x, k, dout = self._arrays(shape, kernel, c_out, stride)
        dx, dk = conv2d_backward(x, k, dout, stride, need_dx=False)
        assert dx is None
        np.testing.assert_array_equal(dk, conv2d_backward(x, k, dout, stride)[1])

    @pytest.mark.parametrize("out_side", [(8, 7), (7, 5)])
    def test_output_gradient_of_another_size_is_rejected(self, out_side):
        x, k, _ = self._arrays((2, 9, 9, 8), (3, 3), 4, 1)
        with pytest.raises(ShapeMismatchError):
            conv2d_backward(x, k, np.zeros((2, *out_side, 4), np.float32))

    def test_unbatched_image_rejected(self):
        # conv2d takes batches only; a single image needs its batch axis
        x, k, _ = self._arrays((1, 9, 9, 8), (3, 3), 16, 1)
        with pytest.raises(ShapeMismatchError) as exc:
            conv2d(x[0], k)
        assert "(9, 9, 8)" in str(exc.value)

    def test_1x1_columns_are_a_view_of_the_input(self):
        x, _, _ = self._arrays((4, 9, 9, 8), (1, 1), 32, 1)
        cols = layers._im2col(x, 1, 1, 1, 9, 9)
        assert cols.shape == (4 * 9 * 9, 8) and np.shares_memory(cols, x)

    @pytest.mark.parametrize("kernel", [(3, 3), (1, 1)])
    def test_non_contiguous_input_view(self, kernel):
        base, k, _ = self._arrays((4, 20, 18, 6), kernel, 5, 1)
        # every other column and a channel subset: a strided, non-contiguous view
        x = base[:, :, ::2, 1:4]
        assert not x.flags.c_contiguous
        k = k[:, :, :3]
        h_out, w_out = 21 - kernel[0], 10 - kernel[1]
        dout = np.random.default_rng(1).standard_normal(
            (4, h_out, w_out, 5)).astype(np.float32)
        _close(conv2d(x, k), einsum_conv2d(x, k))
        dx, dk = conv2d_backward(x, k, dout)
        want_dx, want_dk = einsum_conv2d_backward(x, k, dout)
        _close(dk, want_dk)
        _close(dx, want_dx)


def strided_cols(x, kh, kw, h_out, w_out, stride=1):
    """The general im2col column matrix, read through a strided view."""
    n, _, _, c_in = x.shape
    sn, sh, sw, sc = x.strides
    return as_strided(x, (n, h_out, w_out, kh, kw, c_in),
                      (sn, stride * sh, stride * sw, sh, sw, sc),
                      writeable=False).reshape(n * h_out * w_out, kh * kw * c_in)


def strided_conv2d(x, kernels, stride=1):
    kh, kw, _, c_out = kernels.shape
    n, h, w, _ = x.shape
    h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = strided_cols(x, kh, kw, h_out, w_out, stride)
    return (cols @ kernels.reshape(-1, c_out)).reshape(n, h_out, w_out, c_out)


def strided_conv2d_backward(x, kernels, dout, stride=1):
    """The general kernel gradient and col2im input gradient, summed into
    a zero ``dx``."""
    kh, kw, c_in, c_out = kernels.shape
    n, h_out, w_out, _ = dout.shape
    d2 = dout.reshape(-1, c_out)
    dk = (strided_cols(x, kh, kw, h_out, w_out, stride).T @ d2).reshape(kernels.shape)
    dcols = (d2 @ kernels.reshape(-1, c_out).T).reshape(n, h_out, w_out, kh, kw, c_in)
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += \
                dcols[:, :, :, i, j]
    return dx, dk


class TestConv1x1PathKeepsBits:
    """A 1x1 stride-1 conv reshapes instead of building a strided view,
    and returns the column gradient as ``dx``, with the general path's
    bits under any sgemm kernel."""

    @staticmethod
    def check(x, k, dout):
        assert conv2d(x, k).tobytes() == strided_conv2d(x, k).tobytes()
        dx, dk = conv2d_backward(x, k, dout)
        want_dx, want_dk = strided_conv2d_backward(x, k, dout)
        assert dx.shape == x.shape and dx.dtype == want_dx.dtype
        assert dx.tobytes() == want_dx.tobytes() and dk.tobytes() == want_dk.tobytes()
        return dx

    @pytest.mark.parametrize("shape,c_out", [((16, 9, 9, 8), 32), ((16, 4, 4, 32), 64),
                                             ((1, 9, 9, 8), 32)])
    def test_contiguous_input(self, shape, c_out):
        rng = np.random.default_rng(21)
        x = rng.random(shape, dtype=np.float32)
        k = rng.uniform(-0.3, 0.3, (1, 1, shape[3], c_out)).astype(np.float32)
        self.check(x, k, rng.standard_normal((*shape[:3], c_out)).astype(np.float32))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(22)
        x = rng.random((4, 20, 18, 6), dtype=np.float32)[:, :, ::2, 1:4]
        assert not x.flags.c_contiguous
        k = rng.uniform(-0.3, 0.3, (1, 1, 3, 5)).astype(np.float32)
        self.check(x, k, rng.standard_normal((4, 20, 9, 5)).astype(np.float32))

    def test_signed_zero_column_gradient_gives_positive_zero(self):
        # image 0's column-gradient entries are sums of -0 * 0.5 products;
        # dx holds +0 there, as the sum into a zero dx gives
        rng = np.random.default_rng(23)
        x = rng.random((3, 5, 5, 4), dtype=np.float32)
        k = np.full((1, 1, 4, 6), 0.5, np.float32)
        dout = rng.standard_normal((3, 5, 5, 6)).astype(np.float32)
        dout[0] = -0.0
        dx = self.check(x, k, dout)
        assert (dx[0] == 0).all() and not np.signbit(dx[0]).any()


class TestSingleChannelIm2colKeepsBits:
    """A one-channel input's columns, copied one window position at a
    time, are the bytes of the general strided view's reshape."""

    @pytest.mark.parametrize("kernel,stride", [((3, 3), 1), ((3, 3), 2), ((2, 3), 1)])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_columns_equal_the_strided_view(self, kernel, stride, contiguous):
        rng = np.random.default_rng(31)
        if contiguous:
            x = rng.random((5, 20, 17, 1), dtype=np.float32)
        else:
            # every other column of one channel: a non-contiguous view
            x = rng.random((5, 20, 34, 3), dtype=np.float32)[:, :, ::2, 1:2]
            assert not x.flags.c_contiguous
        (kh, kw), (h, w) = kernel, x.shape[1:3]
        h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
        got = layers._im2col(x, kh, kw, stride, h_out, w_out)
        want = strided_cols(x, kh, kw, h_out, w_out, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestStackedConvKeepsBits:
    """A stacked Conv2D step gives each network's slice the output and
    gradients that ``conv2d`` and ``conv2d_backward`` give that network
    alone, to the last bit."""

    SPECS = {"3x3": LayerSpec.conv(5, 3), "3x3-stride-2": LayerSpec.conv(5, 3, stride=2),
             "2x2": LayerSpec.conv(4, 2), "1x1": LayerSpec.conv(6, 1)}

    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_each_slice_has_its_lone_bits(self, spec, members, need_dx):
        rng = np.random.default_rng(41)
        kind = layers.KINDS["Conv2D"]
        x = rng.random((members, 8, 9, 9, 3), dtype=np.float32)
        params = [{"W": rng.uniform(-0.3, 0.3, (*spec.kernel, 3, spec.filters))
                   .astype(np.float32),
                   "b": rng.uniform(-0.1, 0.1, spec.filters).astype(np.float32)}
                  for _ in range(members)]
        stacked = {key: np.stack([p[key] for p in params]) for key in ("W", "b")}
        y, cache = kind.forward(spec, stacked, x, 2, True)
        assert kind.forward(spec, stacked, x, 2, False)[0].tobytes() == y.tobytes()
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, grads = kind.backward(spec, stacked, x, y, cache, dy, need_dx)
        assert (dx is None) is not need_dx
        # the forward's column matrix stands in for the one backward builds
        rebuilt_dx, rebuilt = kind.backward(spec, stacked, x, y, None, dy, need_dx)
        assert grads["W"].tobytes() == rebuilt["W"].tobytes()
        assert need_dx is False or dx.tobytes() == rebuilt_dx.tobytes()
        for j, p in enumerate(params):
            y_j = conv2d(x[j], p["W"], spec.stride) + p["b"]
            dx_j, dw_j = conv2d_backward(x[j], p["W"], dy[j], spec.stride, need_dx)
            assert y[j].tobytes() == y_j.tobytes()
            assert grads["W"][j].tobytes() == dw_j.tobytes()
            assert grads["b"][j].tobytes() == dy[j].sum(axis=(0, 1, 2)).tobytes()
            if need_dx:
                assert dx[j].shape == x[j].shape
                assert dx[j].tobytes() == dx_j.tobytes()


# every layer kind: a single-channel 3x3 conv (the copied im2col), an
# overlapping 3x3 stride-1 pool, a 1x1 conv, a non-overlapping pool
FORWARD_SPECS = [LayerSpec.conv(4, 3), LayerSpec.relu(), LayerSpec.maxpool(3, 1),
                 LayerSpec.conv(6, 1), LayerSpec.maxpool(2), LayerSpec.relu(),
                 LayerSpec.conv(5, 2, stride=2), LayerSpec.flatten(),
                 LayerSpec.dense(7), LayerSpec.relu(), LayerSpec.dense(3),
                 LayerSpec.softmax()]


class TestInferenceForwardKeepsBits:
    """An inference forward, which keeps no argmax and no columns, gives
    every layer the activation the training forward inside ``backward``
    gives it, to the last bit."""

    @staticmethod
    def nets(members):
        nets = [Network.build(FORWARD_SPECS, (13, 13, 1), seed=60 + j)
                for j in range(max(members, 1))]
        return nets[0] if members == 0 else network.stack(nets)

    @pytest.mark.parametrize("members", [0, 1, 3], ids=["single", "stack-1", "stack-3"])
    def test_every_layer_has_its_training_bits(self, members):
        net = self.nets(members)
        rng = np.random.default_rng(61)
        x = rng.standard_normal((*net.stack, 6, 13, 13, 1)).astype(np.float32)
        every = range(net.layer_count)
        trained, caches = network._run_layers(net, x, every, 0)
        inferred = forward(net, x)
        assert len(inferred) == net.layer_count
        for i, spec in enumerate(net.specs):
            assert inferred[i].dtype == trained[i].dtype, spec.kind
            assert inferred[i].tobytes() == trained[i].tobytes(), spec.kind
        assert network.predict(net, x).tobytes() == trained[net.layer_count - 1].tobytes()
        # the training forward keeps what backward reads, inference nothing
        assert {i for i, c in caches.items() if c is not None} == {
            i for i, s in enumerate(net.specs) if s.kind in ("Conv2D", "MaxPool2D")}
        assert network._run_layers(net, x, every)[1] == {}

    def test_taps_keep_only_the_requested_outputs(self):
        net = self.nets(0)
        x = np.random.default_rng(62).standard_normal((4, 13, 13, 1)).astype(np.float32)
        trace = forward(net, x)
        got = forward(net, x, [5, 2])
        assert [a.tobytes() for a in got] == [trace[5].tobytes(), trace[2].tobytes()]
        with pytest.raises(ShapeMismatchError, match="taps"):
            forward(net, x, [2, net.layer_count])

    @pytest.mark.parametrize("kernel,stride", [((2, 2), 2), ((3, 3), 1), ((2, 3), 1)])
    def test_pooling_without_the_index_keeps_the_output(self, kernel, stride):
        x = np.random.default_rng(63).standard_normal((3, 8, 9, 4)).astype(np.float32)
        x[0, 1, 1, 0] = np.nan
        out, idx = maxpool2d(x, kernel, stride)
        bare, none = maxpool2d(x, kernel, stride, need_idx=False)
        assert none is None and idx is not None
        assert bare.tobytes() == out.tobytes()


class TestConvColumnsKeepBits:
    """``conv2d_backward`` given the columns ``conv2d`` returned computes
    what it computes from columns it builds itself, to the last bit."""

    CASES = {"3x3-stride-2": ((4, 11, 12, 3), (3, 3, 3, 5), 2),
             "2x3": ((4, 9, 8, 2), (2, 3, 2, 4), 1),
             "single-channel": ((5, 10, 10, 1), (3, 3, 1, 4), 1),
             "1x1": ((3, 6, 6, 8), (1, 1, 8, 16), 1)}

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_public_kernels(self, case, need_dx):
        x_shape, k_shape, stride = case
        rng = np.random.default_rng(71)
        x = rng.standard_normal(x_shape).astype(np.float32)
        k = rng.uniform(-0.3, 0.3, k_shape).astype(np.float32)
        out, cols = conv2d(x, k, stride, return_cols=True)
        assert out.tobytes() == conv2d(x, k, stride).tobytes()
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx, dk = conv2d_backward(x, k, dout, stride, need_dx, cols)
        want_dx, want_dk = conv2d_backward(x, k, dout, stride, need_dx)
        assert dk.tobytes() == want_dk.tobytes()
        assert (dx is None and want_dx is None) or dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_stacked_kernels(self, case):
        x_shape, k_shape, stride = case
        rng = np.random.default_rng(72)
        x = rng.standard_normal((3, *x_shape)).astype(np.float32)
        k = rng.uniform(-0.3, 0.3, (3, *k_shape)).astype(np.float32)
        out, cols = layers._conv2d(x, k, stride)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx, dk = layers._conv2d_backward(x, k, dout, stride, True, cols)
        want_dx, want_dk = layers._conv2d_backward(x, k, dout, stride, True)
        assert dk.tobytes() == want_dk.tobytes() and dx.tobytes() == want_dx.tobytes()

    def test_backward_reads_the_forward_columns(self, monkeypatch):
        # a backward through a net with a 3x3 conv builds each column
        # matrix once, in its forward
        net = Network.build(FORWARD_SPECS, (13, 13, 1), seed=73)
        x = np.random.default_rng(74).standard_normal((2, 13, 13, 1)).astype(np.float32)
        built = []
        real = layers._im2col

        def counting(*args):
            built.append(args[1:4])
            return real(*args)

        monkeypatch.setattr(layers, "_im2col", counting)
        backward(net, x, np.full((2, 3), 1 / 3, dtype=np.float32), "MSE")
        assert built == [(3, 3, 1), (1, 1, 1), (2, 2, 2)]


class TestMaxPool:
    def test_known_values(self):
        x = np.array([[1, 2, 5, 3],
                      [4, 0, 1, 2],
                      [3, 1, 6, 0],
                      [2, 2, 1, 1]], dtype=np.float32).reshape(1, 4, 4, 1)
        out, _ = maxpool2d(x, (2, 2), 2)
        np.testing.assert_array_equal(out.reshape(2, 2), [[4, 5], [3, 6]])

    def test_backward_routes_to_argmax(self):
        x = np.array([[1, 2], [4, 0]], dtype=np.float32).reshape(1, 2, 2, 1)
        out, idx = maxpool2d(x, (2, 2), 2)
        dout = np.ones_like(out)
        dx = maxpool2d_backward(x.shape, idx, dout, (2, 2), 2)
        np.testing.assert_array_equal(dx.reshape(2, 2), [[0, 0], [1, 0]])


def window_maxpool(x, kernel, stride):
    """Reference pooling: copy every window, take its first argmax."""
    kh, kw = kernel
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    flat = windows.reshape(windows.shape[:4] + (kh * kw,))
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return out, idx


def scatter_maxpool_backward(x_shape, idx, dout, kernel, stride):
    """Reference gradient: ``np.add.at`` at the argmax positions."""
    kh, kw = kernel
    n, h_out, w_out, c = dout.shape
    dx = np.zeros(x_shape, dtype=dout.dtype)
    nn, oh, ow, cc = np.ogrid[:n, :h_out, :w_out, :c]
    np.add.at(dx, (nn, oh * stride + idx // kw, ow * stride + idx % kw, cc), dout)
    return dx


def putmask_maxpool(x, kernel, stride):
    """The running-maximum kernel as it was with a masked index update,
    the reference for NaN windows (where ``argmax`` picks the NaN)."""
    kh, kw = kernel
    h, w = x.shape[-3:-1]
    h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
    slices = [(Ellipsis, slice(i, i + stride * (h_out - 1) + 1, stride),
               slice(j, j + stride * (w_out - 1) + 1, stride), slice(None))
              for i in range(kh) for j in range(kw)]
    out = x[slices[0]].copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for t, sl in enumerate(slices[1:], start=1):
        s = x[sl]
        np.putmask(idx, s > out, t)
        np.maximum(s, out, out=out)
    return out, idx


def bits(a):
    """The float32 bit patterns, so -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.int32)


class TestMaxPoolMatchesWindowReference:
    @pytest.mark.parametrize("kernel,stride,side", [
        ((2, 2), 2, 9), ((2, 2), 2, 7), ((2, 2), 2, 8), ((2, 2), 1, 8),
        ((3, 3), 2, 9), ((2, 3), 2, 9), ((3, 2), 1, 7)])
    @pytest.mark.parametrize("relu", [False, True])
    def test_bitwise_equal(self, kernel, stride, side, relu):
        rng = np.random.default_rng(side * 10 + stride)
        for _ in range(5):
            x = rng.standard_normal((3, side, side + 1, 4)).astype(np.float32)
            if relu:  # many windows tie at 0
                x = np.maximum(x, 0)
            want_out, want_idx = window_maxpool(x, kernel, stride)
            out, idx = maxpool2d(x, kernel, stride)
            assert out.shape == want_out.shape and idx.dtype == want_idx.dtype
            np.testing.assert_array_equal(bits(out), bits(want_out))
            np.testing.assert_array_equal(idx, want_idx)
            dout = rng.standard_normal(out.shape).astype(np.float32)
            np.testing.assert_array_equal(
                bits(maxpool2d_backward(x.shape, idx, dout, kernel, stride)),
                bits(scatter_maxpool_backward(x.shape, want_idx, dout, kernel, stride)))

    def test_ties_take_the_first_position(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        x[0, 1, 1, 1] = 1.0
        out, idx = maxpool2d(x, (2, 2), 2)
        want_out, want_idx = window_maxpool(x, (2, 2), 2)
        np.testing.assert_array_equal(idx, want_idx)
        assert idx[0, 0, 0, 1] == 3 and (idx[..., 0] == 0).all()
        np.testing.assert_array_equal(bits(out), bits(want_out))

    @pytest.mark.parametrize("kernel,stride", [((2, 2), 2), ((3, 3), 2)])
    def test_stacked_leading_axes(self, kernel, stride):
        rng = np.random.default_rng(11)
        x = np.maximum(rng.standard_normal((3, 4, 9, 9, 5)), 0).astype(np.float32)
        out, idx = maxpool2d(x, kernel, stride)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx = maxpool2d_backward(x.shape, idx, dout, kernel, stride)
        assert idx.dtype == np.intp
        for j in range(x.shape[0]):  # each network's slice, pooled alone
            want_out, want_idx = window_maxpool(x[j], kernel, stride)
            np.testing.assert_array_equal(bits(out[j]), bits(want_out))
            np.testing.assert_array_equal(idx[j], want_idx)
            np.testing.assert_array_equal(
                bits(dx[j]),
                bits(scatter_maxpool_backward(x[j].shape, want_idx, dout[j],
                                              kernel, stride)))

    @pytest.mark.parametrize("kernel,stride", [((2, 2), 2), ((2, 2), 1)])
    def test_batch_of_one(self, kernel, stride):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 9, 9, 32)).astype(np.float32)
        out, idx = maxpool2d(x, kernel, stride)
        want_out, want_idx = window_maxpool(x, kernel, stride)
        np.testing.assert_array_equal(bits(out), bits(want_out))
        np.testing.assert_array_equal(idx, want_idx)
        assert idx.dtype == want_idx.dtype
        dout = rng.standard_normal(out.shape).astype(np.float32)
        np.testing.assert_array_equal(
            bits(maxpool2d_backward(x.shape, idx, dout, kernel, stride)),
            bits(scatter_maxpool_backward(x.shape, want_idx, dout, kernel, stride)))

    @pytest.mark.parametrize("kernel,stride", [((2, 2), 2), ((3, 3), 1)])
    def test_signed_zero_gradients(self, kernel, stride):
        # dout * (idx == t) adds -0.0 off the argmax wherever dout < 0;
        # a -0.0 or 0.0 dout lands on the argmax as the selection puts it
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        out, idx = maxpool2d(x, kernel, stride)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dout.flat[::3] = -0.0
        dout.flat[1::5] = 0.0
        dx = maxpool2d_backward(x.shape, idx, dout, kernel, stride)
        want = scatter_maxpool_backward(x.shape, window_maxpool(x, kernel, stride)[1],
                                        dout, kernel, stride)
        np.testing.assert_array_equal(bits(dx), bits(want))
        assert not np.signbit(dx[dx == 0]).any()

    def test_window_of_more_positions_than_a_byte_holds(self):
        rng = np.random.default_rng(14)
        # rows rise by 10, so each window's maximum sits in its last row,
        # at a position from 16 * 16 = 256 on
        x = (rng.standard_normal((2, 20, 19, 3))
             + 10.0 * np.arange(20)[:, None, None]).astype(np.float32)
        kernel, stride = (17, 16), 2  # 272 positions
        out, idx = maxpool2d(x, kernel, stride)
        want_out, want_idx = window_maxpool(x, kernel, stride)
        assert idx.dtype == want_idx.dtype and idx.min() >= 256
        np.testing.assert_array_equal(bits(out), bits(want_out))
        np.testing.assert_array_equal(idx, want_idx)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        np.testing.assert_array_equal(
            bits(maxpool2d_backward(x.shape, idx, dout, kernel, stride)),
            bits(scatter_maxpool_backward(x.shape, want_idx, dout, kernel, stride)))

    @pytest.mark.parametrize("kernel,stride", [((2, 2), 2), ((3, 3), 1)])
    def test_nan_windows_match_the_masked_kernel(self, kernel, stride):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 9, 9, 4)).astype(np.float32)
        x.flat[rng.choice(x.size, 40, replace=False)] = np.nan
        x[0, :3, :3, 0] = np.nan  # a window of NaNs only
        out, idx = maxpool2d(x, kernel, stride)
        want_out, want_idx = putmask_maxpool(x, kernel, stride)
        assert np.isnan(out).any() and idx.dtype == want_idx.dtype
        np.testing.assert_array_equal(bits(out), bits(want_out))
        np.testing.assert_array_equal(idx, want_idx)

    def test_nan_input_to_a_leading_pool_raises(self):
        net = Network.build([LayerSpec.maxpool(2), LayerSpec.flatten(),
                             LayerSpec.dense(2)], (4, 4, 1), seed=0)
        x = np.ones((2, 4, 4, 1), dtype=np.float32)
        x[1, 3, 2, 0] = np.nan  # not the first element of its window
        with pytest.raises(NumericFailureError) as exc:
            forward(net, x)
        assert exc.value.layer_index == 0


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 2))), [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 7)).astype(np.float32) * 10
        y = softmax(x)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-5)
        assert (y >= 0).all() and (y <= 1).all()


# ---------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------

def kink_margin(net, batch):
    """Distance of the forward pass from ReLU/max-pool non-smoothness.

    Finite differences are only a valid oracle where the loss is locally
    smooth; a parameter step of 1e-3 moves activations by well under the
    0.02 margin enforced by ``draw_kink_safe``.
    """
    from numpy.lib.stride_tricks import as_strided, sliding_window_view

    trace = forward(net, batch)
    margin = np.inf
    x = net._normalize_batch(batch)
    for i, spec in enumerate(net.specs):
        inp = x if i == 0 else trace[i - 1]
        if spec.kind == "ReLU":
            margin = min(margin, float(np.abs(inp).min()))
        elif spec.kind == "MaxPool2D":
            kh, kw = spec.kernel
            win = sliding_window_view(inp, (kh, kw), axis=(1, 2))
            win = win[:, ::spec.stride, ::spec.stride]
            flat = np.sort(win.reshape(win.shape[:4] + (kh * kw,)), axis=-1)
            if flat.shape[-1] > 1:
                gap = flat[..., -1] - flat[..., -2]
                # an exact 0/0 tie is a fully clipped ReLU window; it stays
                # pinned at zero under small parameter steps, so it is safe
                live = ~((flat[..., -1] == 0) & (flat[..., -2] == 0))
                if live.any():
                    margin = min(margin, float(gap[live].min()))
    return margin


def draw_kink_safe(net, input_shape, rng, n=3, min_margin=0.02, tries=50):
    """Draw a batch whose forward pass stays away from ReLU/pool kinks.

    Prefers a margin of ``min_margin``; otherwise takes the best draw
    seen, down to a hard floor of 8e-3 (a 1e-3 parameter step moves any
    activation in these nets by well under 4e-3).
    """
    best, best_margin = None, -np.inf
    for _ in range(tries):
        batch = rng.standard_normal((n,) + tuple(input_shape))
        margin = kink_margin(net, batch)
        if margin > min_margin:
            return batch
        if margin > best_margin:
            best, best_margin = batch, margin
    if best_margin >= 8e-3:
        return best
    raise AssertionError(
        f"could not draw a kink-safe batch (best margin {best_margin:.4f})")


def finite_difference_grads(net, batch, targets, loss_kind, step=1e-3):
    """Central finite differences of the loss w.r.t. every parameter."""
    fd = {}
    for i in net.unfrozen_param_layers():
        fd[i] = {}
        for key in ("W", "b"):
            base = net.params[i][key]
            g = np.zeros_like(base, dtype=np.float64)
            flat = base.reshape(-1)
            for j in range(flat.size):
                for sign in (+1.0, -1.0):
                    bumped = base.copy().reshape(-1)
                    bumped[j] += sign * step
                    params = list(net.params)
                    params[i] = dict(net.params[i], **{key: bumped.reshape(base.shape)})
                    _, loss = backward(net.with_params(params), batch, targets, loss_kind)
                    g.reshape(-1)[j] += sign * loss / (2 * step)
            fd[i][key] = g
    return fd


def assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-6):
    for i in numeric:
        for key in ("W", "b"):
            a, b = analytic[i][key], numeric[i][key]
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol,
                                       err_msg=f"layer {i} {key}")


def small_net(specs, input_shape, seed):
    # float64 copies keep the finite-difference quotients meaningful
    return Network.build(specs, input_shape, seed).astype(np.float64)


GRADCHECK_CASES = {
    "dense_relu_softmax_ce": (
        [LayerSpec.dense(5), LayerSpec.relu(), LayerSpec.dense(3), LayerSpec.softmax()],
        (4,), "CrossEntropy"),
    "dense_mse": ([LayerSpec.dense(3)], (6,), "MSE"),
    "conv_relu_dense_softmax_ce": (
        [LayerSpec.conv(2, 3), LayerSpec.relu(), LayerSpec.flatten(),
         LayerSpec.dense(2), LayerSpec.softmax()],
        (6, 6, 1), "CrossEntropy"),
    "conv_pool_dense_mse": (
        [LayerSpec.conv(3, 2, stride=2), LayerSpec.maxpool(2), LayerSpec.flatten(),
         LayerSpec.dense(2)],
        (8, 7, 2), "MSE"),
    "conv_stride_softmax_ce": (
        [LayerSpec.conv(2, (2, 3), stride=2), LayerSpec.relu(), LayerSpec.maxpool(2, 1),
         LayerSpec.flatten(), LayerSpec.dense(3), LayerSpec.softmax()],
        (7, 8, 1), "CrossEntropy"),
}


@pytest.mark.parametrize("case", sorted(GRADCHECK_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_finite_differences(case, seed):
    specs, input_shape, loss_kind = GRADCHECK_CASES[case]
    rng = np.random.default_rng(seed)
    net = small_net(specs, input_shape, seed=seed * 101 + 5)
    batch = draw_kink_safe(net, input_shape, rng)
    width = net.output_shape[0]
    if loss_kind == "CrossEntropy":
        targets = np.eye(width)[rng.integers(0, width, size=3)]
    else:
        targets = rng.standard_normal((3, width))
    analytic, _ = backward(net, batch, targets, loss_kind)
    numeric = finite_difference_grads(net, batch, targets, loss_kind)
    assert_grads_close(analytic, numeric)


def test_frozen_layers_produce_no_gradients():
    specs = [LayerSpec.dense(4, frozen=True), LayerSpec.relu(),
             LayerSpec.dense(2), LayerSpec.softmax()]
    net = Network.build(specs, (3,), seed=0)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((2, 3)).astype(np.float32)
    targets = np.eye(2, dtype=np.float32)
    grads, _ = backward(net, batch, targets)
    assert set(grads) == {2}


# One valid dict per layer kind, holding every field the kind has.
VALID_LAYERS = {
    "Conv2D": {"kind": "Conv2D", "filters": 4, "kernel": [3, 2], "stride": 2,
               "frozen": True},
    "MaxPool2D": {"kind": "MaxPool2D", "kernel": [2, 3], "stride": 1},
    "Dense": {"kind": "Dense", "units": 5, "frozen": True},
    "ReLU": {"kind": "ReLU"},
    "Softmax": {"kind": "Softmax"},
    "Flatten": {"kind": "Flatten"},
}
# every field some kind has: (a valid value, ill-typed values)
COUNT_VALUES = (3, [0, -1, 4.5, True, "4", None])
FIELD_VALUES = {
    "filters": COUNT_VALUES, "units": COUNT_VALUES, "stride": COUNT_VALUES,
    "kernel": ([2, 2], [[3], [3, 3, 3], [3, 0], [3, 2.0], [True, 2], 3, "33", None]),
    "frozen": (False, ["no", 0, 1, None]),
}
REQUIRED = ("filters", "kernel", "units")


def malformed_variants(d):
    yield "misspelt stride", {**d, "stide": 2}
    for name, (valid, bad_values) in FIELD_VALUES.items():
        if name not in d:
            yield f"foreign {name}", {**d, name: valid}
            continue
        for bad in bad_values:
            yield f"{name}={bad!r}", {**d, name: bad}
        if name in REQUIRED:
            yield f"no {name}", {k: v for k, v in d.items() if k != name}


@pytest.mark.parametrize("kind", sorted(VALID_LAYERS))
def test_layer_dict_round_trips_and_malformed_ones_are_rejected(kind):
    d = VALID_LAYERS[kind]
    spec = LayerSpec.from_dict(d)
    assert spec.to_dict() == d
    assert LayerSpec.from_dict(spec.to_dict()) == spec
    accepted = []
    for label, bad in malformed_variants(d):
        try:
            LayerSpec.from_dict(bad)
            accepted.append(label)
        except ValueError:
            pass
    assert accepted == []


def test_absent_optional_layer_fields_take_the_kind_defaults():
    conv = LayerSpec.from_dict({"kind": "Conv2D", "filters": 2, "kernel": [3, 3]})
    assert (conv.stride, conv.frozen) == (1, False)
    assert LayerSpec.from_dict({"kind": "MaxPool2D", "kernel": [3, 2]}).stride == 3
    assert LayerSpec.from_dict({"kind": "Dense", "units": 4}).frozen is False
    with pytest.raises(ValueError):
        LayerSpec.from_dict({"kind": "Conv3D"})


KERNELS = ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward",
           "dense", "dense_backward", "relu", "relu_backward", "softmax",
           "softmax_backward")


def test_networks_call_kernels_through_the_layers_module(monkeypatch):
    """A profiler that rebinds a kernel on ``cactusnet.nn.layers`` sees
    every call a network makes to it."""
    import cactusnet.nn.layers as layers
    calls = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        def counting(*args, _name=name, _kernel=getattr(layers, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(layers, name, counting)
    net = Network.build([LayerSpec.conv(2, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
                         LayerSpec.flatten(), LayerSpec.dense(3), LayerSpec.softmax()],
                        (8, 8, 1), seed=0)
    x = np.random.default_rng(0).random((2, 8, 8, 1)).astype(np.float32)
    # MSE keeps softmax_backward in the chain; cross-entropy fuses it away
    backward(net, x, np.full((2, 3), 1 / 3, dtype=np.float32), "MSE")
    assert calls == dict.fromkeys(KERNELS, 1)
