"""Network-level contracts: traces, losses, freezing, heads, checkpoints."""

import numpy as np
import pytest

from cactusnet.errors import (CheckpointError, NumericFailureError,
                              ShapeMismatchError, UnsupportedArchitectureError)
from cactusnet.nn import (LayerSpec, Network, TrainConfig, backward,
                          checkpoint_load, checkpoint_save, forward, predict,
                          replace_head, sgd_step, train_classifier)
from cactusnet.nn.network import freeze_through


def identity_dense_net():
    net = Network.build([LayerSpec.dense(2), LayerSpec.relu()], (2,), seed=0)
    params = list(net.params)
    params[0] = {"W": np.eye(2, dtype=np.float32), "b": np.zeros(2, np.float32)}
    return net.with_params(params)


class TestForward:
    def test_single_relu_layer(self):
        net = Network(
            [LayerSpec.relu()], (2,),
            [None])
        trace = forward(net, np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(trace[0], [[0.0, 2.0]])

    def test_single_softmax_symmetry(self):
        net = Network([LayerSpec.softmax()], (2,), [None])
        out = predict(net, np.array([[0.0, 0.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_identity_dense_then_relu(self):
        net = identity_dense_net()
        out = predict(net, np.array([[3.0, -3.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[3.0, 0.0]])

    def test_trace_has_one_entry_per_layer(self):
        net = Network.build(
            [LayerSpec.conv(2, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
             LayerSpec.flatten(), LayerSpec.dense(3), LayerSpec.softmax()],
            (8, 8, 1), seed=1)
        batch = np.random.default_rng(0).random((4, 8, 8, 1), dtype=np.float32)
        trace = forward(net, batch)
        assert len(trace) == 6
        np.testing.assert_allclose(trace[-1].sum(axis=1), 1.0, atol=1e-5)

    def test_nonconforming_batch_rejected(self):
        net = Network.build([LayerSpec.dense(2)], (3,), seed=0)
        with pytest.raises(ShapeMismatchError):
            forward(net, np.zeros((2, 4), dtype=np.float32))


    def test_single_input_without_batch_axis_rejected(self):
        # one input is a batch of one: [1, *input_shape], never bare
        net = Network.build([LayerSpec.dense(2)], (3,), seed=0)
        with pytest.raises(ShapeMismatchError):
            predict(net, np.zeros(3, dtype=np.float32))
        assert predict(net, np.zeros((1, 3), dtype=np.float32)).shape == (1, 2)


class TestBackwardLoss:
    def test_mse_zero_at_target(self):
        net = identity_dense_net()
        batch = np.array([[1.0, 2.0]], dtype=np.float32)
        targets = np.array([[1.0, 2.0]], dtype=np.float32)
        grads, loss = backward(net, batch, targets, "MSE")
        assert loss == 0.0
        for g in grads[0].values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_mse_half_half(self):
        # mean over all elements: ((0.5)^2 + (0.5)^2) / 2 = 0.25
        net = Network([LayerSpec.relu()], (2,), [None])
        _, loss = backward(net, np.array([[0.5, 0.5]], dtype=np.float32),
                           np.array([[1.0, 0.0]], dtype=np.float32), "MSE")
        assert loss == pytest.approx(0.25)

    def test_target_shape_mismatch(self):
        net = identity_dense_net()
        with pytest.raises(ShapeMismatchError):
            backward(net, np.zeros((1, 2), np.float32),
                     np.zeros((1, 3), np.float32), "MSE")

    def test_nan_input_reports_layer(self):
        net = identity_dense_net()
        batch = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(NumericFailureError) as exc:
            backward(net, batch, np.zeros((1, 2), np.float32), "MSE")
        assert exc.value.layer_index is not None

    def test_inf_weight_reports_first_layer(self):
        # backward shares forward's per-layer check, so the first
        # non-finite layer is named, not the loss at the last layer
        net = Network.build([LayerSpec.dense(3), LayerSpec.relu(),
                             LayerSpec.dense(2), LayerSpec.softmax()], (2,), seed=0)
        params = list(net.params)
        params[0] = dict(params[0], W=params[0]["W"].copy())
        params[0]["W"][0, 0] = np.inf
        with pytest.raises(NumericFailureError) as exc:
            backward(net.with_params(params), np.ones((1, 2), np.float32),
                     np.array([[1.0, 0.0]], np.float32))
        assert exc.value.layer_index == 0


def with_param(net, i, key, value):
    """``net`` with layer ``i``'s ``key`` parameter replaced by ``value``."""
    params = list(net.params)
    params[i] = dict(params[i], **{key: value})
    return net.with_params(params)


class TestFinitenessChecks:
    """Checks are skipped only where they cannot fire; every raise keeps
    its layer and message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_conv_behind_relu_is_named_at_the_conv(self, bad):
        # the ReLU and pool after layer 2 would absorb a -inf
        net = Network.build([LayerSpec.conv(4, 1), LayerSpec.relu(),
                             LayerSpec.conv(4, 1), LayerSpec.maxpool(2),
                             LayerSpec.relu(), LayerSpec.flatten(),
                             LayerSpec.dense(1)], (4, 4, 3), seed=1)
        b = net.params[2]["b"].copy()
        b[1] = bad
        net = with_param(net, 2, "b", b)
        x = np.ones((2, 4, 4, 3), np.float32)
        for run in (lambda: forward(net, x),
                    lambda: backward(net, x, np.zeros((2, 1), np.float32), "MSE")):
            with pytest.raises(NumericFailureError,
                               match=r"non-finite activation at layer 2 \(Conv2D\)") as exc:
                run()
            assert exc.value.layer_index == 2

    def test_leading_relu_raises_on_inf_and_passes_minus_inf(self):
        net = Network.build([LayerSpec.relu(), LayerSpec.dense(2)], (3,), seed=2)
        with pytest.raises(NumericFailureError) as exc:
            forward(net, np.array([[1.0, np.inf, 0.0]], np.float32))
        assert exc.value.layer_index == 0
        out = forward(net, np.array([[1.0, -np.inf, 0.0]], np.float32))
        assert np.isfinite(out[-1]).all() and out[0][0, 1] == 0

    def test_overlapping_pool_backward_checks_its_delta(self):
        # the centre is the maximum of all nine 3x3 windows, so its
        # gradient sums nine finite shares of about 2e38 and overflows
        net = Network.build([LayerSpec.conv(1, 1), LayerSpec.maxpool(3, stride=1),
                             LayerSpec.flatten(), LayerSpec.dense(1)], (5, 5, 1), seed=3)
        for i in (0, 3):
            net = with_param(net, i, "W", np.ones_like(net.params[i]["W"]))
        x = np.zeros((1, 5, 5, 1), np.float32)
        x[0, 2, 2, 0] = 1e-3
        with pytest.raises(NumericFailureError,
                           match=r"non-finite delta below layer 1 \(MaxPool2D\)") as exc, \
                np.errstate(over="ignore"):
            backward(net, x, np.full((1, 1), -1e38, np.float32), "MSE")
        assert exc.value.layer_index == 1

    def test_first_layer_backprop_visits_checks_the_loss_gradient(self):
        # cross-entropy without a final softmax divides by the clipped
        # output: 1e30 / 1e-12 overflows float32 at the ReLU
        net = Network.build([LayerSpec.dense(2), LayerSpec.relu()], (2,), seed=4)
        net = with_param(net, 0, "W", -np.ones_like(net.params[0]["W"]))
        with pytest.raises(NumericFailureError,
                           match=r"non-finite delta below layer 1 \(ReLU\)") as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            backward(net, np.ones((1, 2), np.float32),
                     np.array([[1e30, 0.0]], np.float32), "CrossEntropy")
        assert exc.value.layer_index == 1


class TestSgdStep:
    def setup_method(self):
        self.net = Network(
            [LayerSpec.dense(1)], (1,),
            [{"W": np.array([[1.0]], dtype=np.float32),
              "b": np.zeros(1, np.float32)}])
        self.grads = {0: {"W": np.array([[0.5]], dtype=np.float32),
                          "b": np.zeros(1, np.float32)}}

    def test_plain_update(self):
        cfg = TrainConfig(0.1, 1, 1, 0)
        out = sgd_step(self.net, self.grads, cfg)
        assert out.params[0]["W"][0, 0] == pytest.approx(0.95)

    def test_zero_learning_rate_rejected_but_tiny_is_null(self):
        with pytest.raises(ValueError):
            TrainConfig(0.0, 1, 1, 0)

    def test_frozen_layer_untouched(self):
        frozen = freeze_through(self.net, 0)
        cfg = TrainConfig(0.1, 1, 1, 0)
        out = sgd_step(frozen, self.grads, cfg)
        assert out.params[0]["W"][0, 0] == 1.0
        assert out.params[0]["W"] is frozen.params[0]["W"]

    def test_gradient_shape_mismatch(self):
        bad = {0: {"W": np.zeros((2, 2), np.float32), "b": np.zeros(1, np.float32)}}
        with pytest.raises(ShapeMismatchError):
            sgd_step(self.net, bad, TrainConfig(0.1, 1, 1, 0))

    def test_steps_reuse_the_shape_list(self, monkeypatch):
        import cactusnet.nn.network as network
        net = small_cnn()
        x = np.random.default_rng(0).random((4, 8, 8, 1)).astype(np.float32)
        targets = np.eye(5, dtype=np.float32)[[0, 1, 2, 3]]
        calls = []
        real = network.output_shapes
        monkeypatch.setattr(network, "output_shapes",
                            lambda *a: calls.append(a) or real(*a))
        cfg = TrainConfig(0.1, 1, 4, 0)
        for _ in range(3):
            net = sgd_step(net, backward(net, x, targets)[0], cfg)
        assert calls == []
        assert net.shapes == real(net.specs, net.input_shape)


def small_cnn(seed=3, outputs=5):
    return Network.build(
        [LayerSpec.conv(2, 3), LayerSpec.relu(), LayerSpec.maxpool(2),
         LayerSpec.flatten(), LayerSpec.dense(8), LayerSpec.relu(),
         LayerSpec.dense(outputs), LayerSpec.softmax()],
        (8, 8, 1), seed=seed)


class TestReplaceHead:
    def test_output_width_changes(self):
        net = replace_head(small_cnn(), 2, seed=11)
        assert net.output_shape == (2,)

    def test_same_seed_same_head(self):
        a = replace_head(small_cnn(), 2, seed=11)
        b = replace_head(small_cnn(), 2, seed=11)
        np.testing.assert_array_equal(a.params[6]["W"], b.params[6]["W"])

    def test_earlier_layers_preserved_bitwise(self):
        base = small_cnn()
        out = replace_head(base, 2, seed=11)
        for i in (0, 4):
            assert out.params[i]["W"] is base.params[i]["W"]

    def test_headless_architecture_rejected(self):
        net = Network.build([LayerSpec.conv(1, 3), LayerSpec.relu()], (8, 8, 1), 0)
        with pytest.raises(UnsupportedArchitectureError):
            replace_head(net, 2, seed=0)


class TestFreezeInvariance:
    def test_frozen_parameters_bitwise_stable_over_steps(self):
        net = freeze_through(small_cnn(), 4)  # conv + first dense frozen
        before = {i: net.params[i]["W"].copy() for i in (0, 4)}
        rng = np.random.default_rng(0)
        images = rng.random((32, 8, 8, 1), dtype=np.float32)
        labels = rng.integers(0, 5, size=32)
        cfg = TrainConfig(0.05, 3, 8, seed=9)
        trained, _ = train_classifier(net, images, labels, cfg)
        for i in (0, 4):
            np.testing.assert_array_equal(trained.params[i]["W"], before[i])
        assert not np.array_equal(trained.params[6]["W"], net.params[6]["W"])


class TestDeterminism:
    def test_identical_seed_identical_training(self):
        rng = np.random.default_rng(1)
        images = rng.random((40, 8, 8, 1), dtype=np.float32)
        labels = rng.integers(0, 5, size=40)
        cfg = TrainConfig(0.05, 2, 8, seed=4)
        a, _ = train_classifier(small_cnn(), images, labels, cfg)
        b, _ = train_classifier(small_cnn(), images, labels, cfg)
        for i in a.param_layers():
            np.testing.assert_array_equal(a.params[i]["W"], b.params[i]["W"])
            np.testing.assert_array_equal(a.params[i]["b"], b.params[i]["b"])


class TestCheckpoint:
    def test_round_trip_preserves_forward_bitwise(self, tmp_path):
        net = small_cnn(seed=21)
        path = tmp_path / "net.ckpt"
        checkpoint_save(net, path)
        loaded = checkpoint_load(path)
        batch = np.random.default_rng(5).random((4, 8, 8, 1), dtype=np.float32)
        np.testing.assert_array_equal(predict(net, batch), predict(loaded, batch))
        assert [s.kind for s in loaded.specs] == [s.kind for s in net.specs]

    def test_truncated_file_fails_atomically(self, tmp_path):
        net = small_cnn()
        path = tmp_path / "net.ckpt"
        checkpoint_save(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(path)

    def test_wrong_magic_reported(self, tmp_path):
        path = tmp_path / "net.ckpt"
        checkpoint_save(small_cnn(), path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"WRONGMAG"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            checkpoint_load(path)
        assert exc.value.found_magic == b"WRONGMAG"
        assert exc.value.expected_magic == b"CNLCKPT1"

    def test_param_shapes_checked_against_layers(self, tmp_path):
        net = Network.build([LayerSpec.dense(3), LayerSpec.relu()], (4,), seed=0)
        path = tmp_path / "net.ckpt"
        checkpoint_save(net, path)
        blob = path.read_bytes()
        # relabel W from [4, 3] to [3, 4]: same byte count, wrong layout
        assert blob.count(b"[4, 3]") == 1
        path.write_bytes(blob.replace(b"[4, 3]", b"[3, 4]"))
        with pytest.raises(CheckpointError, match="param_shapes"):
            checkpoint_load(path)

    def test_param_entry_on_parameterless_layer_rejected(self, tmp_path):
        net = Network.build([LayerSpec.dense(3), LayerSpec.relu()], (4,), seed=0)
        path = tmp_path / "net.ckpt"
        checkpoint_save(net, path)
        blob = path.read_bytes()
        # move the Dense layer's shapes onto the ReLU: same tensors, same length
        old = b'"param_shapes": [{"W": [4, 3], "b": [3]}, null]'
        new = b'"param_shapes": [null, {"W": [4, 3], "b": [3]}]'
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(CheckpointError, match="param_shapes"):
            checkpoint_load(path)
