"""Predictor plans, training signal recovery, clamping, evaluation."""

import subprocess
import sys

import numpy as np
import pytest

from cactusnet import predictor
from cactusnet.errors import DataError, LeakageError, ShapeMismatchError
from cactusnet.nn import (LayerSpec, Network, TrainConfig,
                          checkpoint_load_with_extra, predict, sgd_epochs)
from cactusnet.predictor import (PredictorModel, build_predictor,
                                 evaluate_predictor, load_predictor,
                                 predict_applicability, predict_batch,
                                 save_predictor, train_predictor)
from test_cli import child_env


CONV_KINDS = ["Conv2D", "ReLU", "Conv2D", "MaxPool2D", "ReLU",
              "Conv2D", "ReLU", "Conv2D", "MaxPool2D", "ReLU",
              "Flatten", "Dense"]
DENSE_KINDS = ["Flatten", "Dense", "ReLU", "Dense", "ReLU", "Dense"]


def kinds(plan):
    return [s.kind for s in plan]


class TestBuildPredictor:
    def test_conv_plan_for_wide_tap(self):
        plan = build_predictor((12, 12, 16))
        assert kinds(plan) == CONV_KINDS
        filters = [s.filters for s in plan if s.kind == "Conv2D"]
        assert filters == [32, 32, 64, 64]
        # the plan must actually build
        Network.build(plan, (12, 12, 16), seed=0)

    def test_dense_plan_for_flat_tap(self):
        plan = build_predictor((32,))
        assert kinds(plan) == DENSE_KINDS
        widths = [s.units for s in plan if s.kind == "Dense"]
        assert widths == [64, 32, 1]

    def test_dense_plan_when_pooling_twice_impossible(self):
        assert kinds(build_predictor((2, 2, 8))) == DENSE_KINDS

    def test_kernel_adapts_to_tap_size(self):
        assert build_predictor((16, 16, 8))[0].kernel == (3, 3)
        assert build_predictor((12, 12, 16))[0].kernel == (2, 2)
        assert build_predictor((9, 9, 8))[0].kernel == (1, 1)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeMismatchError):
            build_predictor((0, 4, 8))


def relu_before_pool_plan(kernel):
    """The conv plan as it was before each block pooled before its last
    ReLU."""
    return [LayerSpec.conv(32, kernel), LayerSpec.relu(),
            LayerSpec.conv(32, kernel), LayerSpec.relu(), LayerSpec.maxpool(2),
            LayerSpec.conv(64, kernel), LayerSpec.relu(),
            LayerSpec.conv(64, kernel), LayerSpec.relu(), LayerSpec.maxpool(2),
            LayerSpec.flatten(), LayerSpec.dense(1)]


def param_bits(net):
    return [p[k].tobytes() for p in net.params if p is not None for k in ("W", "b")]


class TestPoolBeforeReluKeepsBits:
    """Pooling before the block's last ReLU is the old plan's function and
    gradient to the last bit, under any sgemm kernel."""

    @staticmethod
    def nets(tap):
        new = Network.build(build_predictor(tap), tap, seed=5)
        params = list(new.params)
        for i in (2, 7):  # the convs that feed a pool
            # a third of their filters start far below zero, so whole
            # pooling windows are negative
            b = params[i]["b"].copy()
            b[::3] = -4.0
            params[i] = dict(params[i], b=b)
        new = new.with_params(params)
        old = Network(relu_before_pool_plan(new.specs[0].kernel), tap, new.params)
        return old, new

    @staticmethod
    def batch(tap, n=24, seed=6):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, *tap)).astype(np.float32)
        h, w, c = tap
        # 2x2 blocks of equal pixels (ties under 1x1 kernels) and constant
        # maps (ties under every kernel)
        blocks = rng.standard_normal((8, (h + 1) // 2, (w + 1) // 2, c))
        x[:8] = np.repeat(np.repeat(blocks, 2, 1), 2, 2)[:, :h, :w]
        x[8:12] = rng.standard_normal((4, 1, 1, c))
        return x

    @pytest.mark.parametrize("tap", [(9, 9, 8), (16, 16, 2)])
    def test_outputs_and_sgd_steps_are_bitwise_equal(self, tap):
        old, new = self.nets(tap)
        assert kinds(old.specs) != kinds(new.specs)
        x = self.batch(tap)
        assert predict(old, x).tobytes() == predict(new, x).tobytes()
        y = np.random.default_rng(7).random((len(x), 1)).astype(np.float32)
        cfg = TrainConfig(0.05, 3, 8, seed=8)
        for (a, _), (b, _) in zip(sgd_epochs(old, x, y, cfg, "MSE"),
                                  sgd_epochs(new, x, y, cfg, "MSE")):
            assert param_bits(a) == param_bits(b)
        assert predict(a, x).tobytes() == predict(b, x).tobytes()

    def test_old_order_checkpoint_predicts_the_new_order_bits(self, tmp_path):
        tap = (9, 9, 8)
        old, new = self.nets(tap)
        path = tmp_path / "old.ckpt"
        save_predictor(PredictorModel(old, 2, 0.1, 1.5), path)
        back = load_predictor(path)
        assert kinds(back.net.specs) == kinds(relu_before_pool_plan(1))
        x = self.batch(tap)
        assert predict_batch(back, x).tobytes() == \
            predict_batch(PredictorModel(new, 2, 0.1, 1.5), x).tobytes()


def linear_signal_samples(n, dim, seed, shuffle_targets=False, spread=0.6):
    """Targets are a fixed linear function of the mean activation."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=n)
    acts = base[:, None] + rng.normal(0.0, 0.05, size=(n, dim))
    targets = (0.5 - spread / 2) + spread * base
    if shuffle_targets:
        targets = targets[rng.permutation(n)]
    return [(acts[i].astype(np.float32), float(np.clip(targets[i], 0, 1)))
            for i in range(n)]


def closed_form_baseline_mse(samples):
    """Least squares of target on (mean activation, 1)."""
    x = np.array([s[0].mean() for s in samples])
    y = np.array([s[1] for s in samples])
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(np.mean((design @ coef - y) ** 2))


class TestTrainPredictor:
    CFG = TrainConfig(0.05, 40, 16, seed=2)

    def test_recovers_linear_signal(self):
        samples = linear_signal_samples(100, 16, seed=1)
        _, report = train_predictor((16,), samples, self.CFG)
        baseline = closed_form_baseline_mse(samples)
        assert report.final_train_mse <= 0.01
        assert report.final_train_mse <= baseline + 0.01
        assert report.n_samples == 100

    def test_training_reduces_loss(self):
        samples = linear_signal_samples(100, 16, seed=3)
        _, report = train_predictor((16,), samples, self.CFG)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_signal_recovery_on_held_out_data(self):
        # applicability an injective function of the mean activation:
        # held-out MSE must land well under the target variance
        train = linear_signal_samples(120, 16, seed=8, spread=0.9)
        heldout = linear_signal_samples(60, 16, seed=9, spread=0.9)
        cfg = TrainConfig(0.05, 80, 16, seed=2)
        _, report = train_predictor((16,), train, cfg, heldout=heldout)
        variance = float(np.var([t for _, t in heldout]))
        assert report.heldout_mse <= 0.05 * variance

    def test_permutation_control(self):
        train = linear_signal_samples(100, 16, seed=4, shuffle_targets=True)
        heldout = linear_signal_samples(60, 16, seed=5)
        _, report = train_predictor((16,), train, self.CFG, heldout=heldout)
        variance = float(np.var([t for _, t in heldout]))
        assert report.heldout_mse >= 0.5 * variance

    def test_degenerate_targets_warn_but_train(self):
        samples = [(np.full(8, 0.3, np.float32), 0.7) for _ in range(10)]
        with pytest.warns(UserWarning, match="identical"):
            model, _ = train_predictor((8,), samples, TrainConfig(0.05, 2, 4, 0))
        assert model.net is not None

    def test_target_range_enforced(self):
        samples = [(np.zeros(8, np.float32), 1.5)]
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            train_predictor((8,), samples * 3,
                            TrainConfig(0.05, 1, 4, 0))

    @pytest.mark.parametrize("heldout", [False, True])
    def test_nan_target_is_refused(self, heldout):
        samples = [(np.zeros(8, np.float32), i / 3) for i in range(4)]
        bad = samples[:3] + [(np.zeros(8, np.float32), float("nan"))]
        train, held = (samples, bad) if heldout else (bad, None)
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            train_predictor((8,), train,
                            TrainConfig(0.05, 1, 4, 0), heldout=held)

    def test_fitting_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call, about 16 ms
        code = (
            "import sys, numpy as np\n"
            "from cactusnet.nn import TrainConfig\n"
            "from cactusnet.predictor import train_predictor\n"
            "samples = [(np.full(8, i / 9, np.float32), i / 9) for i in range(10)]\n"
            "train_predictor((8,), samples,\n"
            "                TrainConfig(0.05, 1, 4, 0))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("heldout", [False, True])
    def test_no_samples_is_a_data_error(self, heldout):
        samples = linear_signal_samples(20, 8, seed=12)
        with pytest.raises(DataError, match="no predictor samples"):
            if heldout:
                train_predictor((8,), samples, self.CFG, heldout=[])
            else:
                train_predictor((8,), [], self.CFG)

    def test_activation_shape_mismatch(self):
        samples = [(np.zeros((2, 2, 2), np.float32), 0.5)] * 4
        with pytest.raises(ShapeMismatchError):
            train_predictor((8,), samples, TrainConfig(0.05, 1, 4, 0))

    @pytest.mark.parametrize("bad", [np.zeros((1, 1, 8), np.float32),
                                     np.zeros(9, np.float32)])
    def test_flat_tap_samples_are_not_reshaped(self, bad):
        # a flat tap keeps its own shape: a (1, 1, d) sample is refused,
        # and so is a ragged one
        samples = [(np.zeros(8, np.float32), 0.5)] * 3 + [(bad, 0.5)]
        with pytest.raises(ShapeMismatchError, match=r"does not match tap \(8,\)"):
            train_predictor((8,), samples, TrainConfig(0.05, 1, 4, 0))

    def test_conv_plan_trains_too(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0, 1, size=60)
        acts = (base[:, None, None, None]
                + rng.normal(0, 0.05, size=(60, 6, 6, 3))).astype(np.float32)
        samples = [(acts[i], float(np.clip(0.2 + 0.6 * base[i], 0, 1)))
                   for i in range(60)]
        model, report = train_predictor((6, 6, 3), samples,
                                        TrainConfig(0.05, 30, 8, 7))
        assert kinds(model.net.specs) == CONV_KINDS
        assert report.final_train_mse <= 0.02


class TestTrainingReport:
    CFG = TrainConfig(0.05, 7, 16, seed=3)

    def test_one_loss_per_epoch(self):
        samples = linear_signal_samples(50, 8, seed=11)
        _, report = train_predictor((8,), samples, self.CFG)
        assert len(report.epoch_losses) == self.CFG.epochs
        assert all(isinstance(v, float) for v in report.epoch_losses)

    def test_final_mse_is_the_full_set_mse_of_the_returned_net(self):
        samples = linear_signal_samples(50, 8, seed=12)
        model, report = train_predictor((8,), samples, self.CFG)
        x, y = predictor._stack_samples((8,), samples)
        assert report.final_train_mse == predictor._mse(model.net, model.normalize(x), y)

    @pytest.mark.parametrize("with_heldout", [False, True])
    def test_full_set_forwards(self, monkeypatch, with_heldout):
        calls = []

        def counting_predict(net, batch):
            calls.append(len(batch))
            return real_predict(net, batch)

        real_predict = predictor.predict
        monkeypatch.setattr(predictor, "predict", counting_predict)
        samples = linear_signal_samples(50, 8, seed=13)
        heldout = linear_signal_samples(20, 8, seed=14) if with_heldout else None
        train_predictor((8,), samples, self.CFG, heldout=heldout)
        assert calls == ([50, 20] if with_heldout else [50])


def constant_model(bias, tap=(8,)):
    net = Network.build(build_predictor(tap), tap, seed=0)
    params = list(net.params)
    last = max(net.param_layers())
    params[last] = {"W": np.zeros_like(params[last]["W"]),
                    "b": np.full_like(params[last]["b"], bias)}
    return PredictorModel(net.with_params(params), 0, 0.0, 1.0)


class TestPredict:
    def test_constant_model_clamps(self):
        act = np.zeros(8, np.float32)
        assert predict_applicability(constant_model(2.0), act) == 1.0
        assert predict_applicability(constant_model(-0.5), act) == 0.0
        assert predict_applicability(constant_model(0.3), act) == pytest.approx(0.3)

    def test_deterministic(self):
        model = constant_model(0.4)
        act = np.random.default_rng(0).random(8).astype(np.float32)
        assert predict_applicability(model, act) == \
            predict_applicability(model, act)

    def test_percent_scale_reference(self):
        # fraction-space error matches the percent-scale row it came from
        assert 100 * abs(0.9670 - 0.9592) == pytest.approx(0.78, abs=1e-9)

    def test_batch_refuses_a_flat_tap_in_another_layout(self):
        with pytest.raises(ShapeMismatchError, match=r"\(5, 1, 1, 8\)"):
            predict_batch(constant_model(0.4), np.zeros((5, 1, 1, 8), np.float32))

    def test_batch_matches_scalar(self):
        model = constant_model(0.4)
        acts = np.random.default_rng(1).random((5, 8)).astype(np.float32)
        batch = predict_batch(model, acts)
        singles = [predict_applicability(model, a) for a in acts]
        np.testing.assert_allclose(batch, singles)


    def test_predict_holds_one_layer_at_a_time(self):
        # the tap-2 plan of the default base net (9x9x8, 1x1 convs) on the
        # 192 rows a train-predictors fit scores: an inference forward
        # holds one layer's input and output at a time, never the trace
        import math
        import tracemalloc
        net = Network.build(build_predictor((9, 9, 8)), (9, 9, 8), seed=5)
        x = np.random.default_rng(8).standard_normal((192, 9, 9, 8)).astype(np.float32)
        predict(net, x)  # warm caches (pool slices) outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict(net, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = [x.shape[0] * math.prod(shape) * x.itemsize for shape in net.shapes]
        pair = max(a + b for a, b in zip([x.nbytes, *outputs], outputs))
        assert peak < sum(outputs)
        assert peak <= pair + pair // 16

class TestEvaluate:
    def test_constant_model_closed_form(self):
        model = constant_model(0.4)
        rng = np.random.default_rng(2)
        held = {7: (rng.random((20, 8), np.float32), 0.9)}
        report = evaluate_predictor(model, held)
        (row,) = report.rows
        assert row.mean_predicted == pytest.approx(0.4, abs=1e-6)
        assert row.abs_err == pytest.approx(0.5, abs=1e-6)
        assert report.overall_mse == pytest.approx((0.9 - 0.4) ** 2, abs=1e-6)

    def test_leakage_rejected(self):
        model = constant_model(0.4)
        model.train_class_ids = (7,)
        with pytest.raises(LeakageError):
            evaluate_predictor(model, {7: (np.zeros((2, 8), np.float32), 0.5)})


class TestPredictorCheckpoint:
    def test_round_trip(self, tmp_path):
        samples = linear_signal_samples(50, 8, seed=9)
        model, _ = train_predictor((8,), samples, TrainConfig(0.05, 5, 8, 1),
                                   layer_index=4, train_class_ids=(1, 2))
        path = tmp_path / "pred.ckpt"
        save_predictor(model, path)
        back = load_predictor(path)
        assert back.layer_index == 4
        assert back.train_class_ids == (1, 2)
        act = np.random.default_rng(3).random(8).astype(np.float32)
        assert predict_applicability(back, act) == \
            predict_applicability(model, act)

    def test_header_is_the_only_description(self, tmp_path):
        samples = linear_signal_samples(20, 8, seed=10)
        model, _ = train_predictor((8,), samples, TrainConfig(0.05, 1, 8, 1))
        path = tmp_path / "pred.ckpt"
        save_predictor(model, path)
        net, extra = checkpoint_load_with_extra(path, magic=predictor.PREDICTOR_MAGIC)
        assert net.input_shape == (8,)
        assert kinds(net.specs) == DENSE_KINDS
        assert set(extra) == {"layer_index", "in_mean", "in_scale",
                              "train_class_ids"}
