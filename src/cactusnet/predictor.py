"""Per-layer applicability predictors.

Small regressors that map a layer's activation tensor to a scalar
predicted applicability in [0, 1].  Convolutional taps get a two-block
CNN (conv, ReLU, conv, 2x2 max-pool, ReLU per block; 32 filters in the
first block, 64 in the second) with the kernel size adapted so valid
shapes survive both poolings; flat taps of shape (d,) and small maps get
a small MLP instead.  A predictor is described by its ``Network`` alone:
the tap shape is its input shape, the plan its layers.

Each block pools before its last ReLU, so the ReLU runs on the pooled
map, a quarter of the elements.  ReLU and max commute, ``relu(max(x)) ==
max(relu(x))``, and in both orders the gradient reaches the window's
first maximum or is zero, so the two orders compute the same outputs and
SGD steps to the last bit.  A checkpoint saved with the ReLU before the
pool keeps that order in its header and predicts as it did.
Targets are class-level applicabilities assigned to every image of the
class, trained with mean squared error.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LeakageError, ShapeMismatchError
# perfbench's tracer tests check the predictor.backward binding
from .nn import (LayerSpec, Network, backward, checkpoint_load_with_extra,  # noqa: F401
                 checkpoint_save, output_shapes, predict, sgd_epochs)
from .seeding import rng_for

PREDICTOR_MAGIC = b"CNLPRED1"

DENSE_HIDDEN = (64, 32)


def _conv_plan(kernel):
    # each block pools before its last ReLU: the same function as ReLU
    # before pooling, on a quarter of the elements (module docstring)
    return [LayerSpec.conv(32, kernel), LayerSpec.relu(),
            LayerSpec.conv(32, kernel), LayerSpec.maxpool(2), LayerSpec.relu(),
            LayerSpec.conv(64, kernel), LayerSpec.relu(),
            LayerSpec.conv(64, kernel), LayerSpec.maxpool(2), LayerSpec.relu(),
            LayerSpec.flatten(), LayerSpec.dense(1)]


def _dense_plan():
    return [LayerSpec.flatten(),
            LayerSpec.dense(DENSE_HIDDEN[0]), LayerSpec.relu(),
            LayerSpec.dense(DENSE_HIDDEN[1]), LayerSpec.relu(),
            LayerSpec.dense(1)]


def build_predictor(tap_shape) -> list:
    """The predictor's layer plan for a tap as the base net emits it,
    ``(h, w, maps)`` or ``(d,)``.

    The convolutional plan applies when min(h, w) >= 4, which is exactly
    when two conv blocks with valid pooling fit; the kernel size is the
    largest of 3/2/1 that keeps every stage non-empty.  Any other tap
    gets the MLP.
    """
    tap_shape = tuple(int(d) for d in tap_shape)
    if len(tap_shape) not in (1, 3) or any(d < 1 for d in tap_shape):
        raise ShapeMismatchError(
            f"tap shape must be (h, w, maps) or (d,) of positive extents, "
            f"got {tap_shape}")
    if len(tap_shape) == 3 and min(tap_shape[:2]) >= 4:
        for kernel in (3, 2, 1):
            try:
                output_shapes(_conv_plan(kernel), tap_shape)
            except ShapeMismatchError:
                continue
            return _conv_plan(kernel)
    return _dense_plan()


@dataclass
class TrainingReport:
    """What a predictor fit reports.

    ``epoch_losses[e]`` is the mean of epoch e's minibatch MSEs, each
    taken before that minibatch's SGD step.  ``final_train_mse`` is the
    MSE of the trained predictor over the whole training set, and
    ``heldout_mse`` the same over the held-out samples, when given.
    """
    epoch_losses: list
    n_samples: int
    final_train_mse: float
    heldout_mse: float | None = None


@dataclass
class PredictorModel:
    """A trained predictor plus the input normalization it was fit with.
    Its tap shape is ``net.input_shape``."""
    net: Network
    layer_index: int
    in_mean: float
    in_scale: float
    train_class_ids: tuple = ()

    def normalize(self, acts):
        return ((acts - self.in_mean) / self.in_scale).astype(np.float32)


def _stack_samples(tap_shape, samples):
    acts, targets = [], []
    for activation, target in samples:
        arr = np.asarray(activation, dtype=np.float32)
        if arr.shape != tap_shape:
            raise ShapeMismatchError(
                f"activation shape {arr.shape} does not match tap {tap_shape}")
        acts.append(arr)
        targets.append(float(target))
    if not acts:
        raise DataError("no predictor samples given")
    x = np.stack(acts)
    y = np.asarray(targets, dtype=np.float32)
    # written so that a NaN target, for which every comparison is false,
    # is refused too
    if y.size and not (0.0 <= y.min() and y.max() <= 1.0):
        raise DataError("applicability targets must lie in [0, 1]")
    return x, y


def _mse(net, x, y):
    out = predict(net, x)[:, 0]
    return float(np.mean((out.astype(np.float64) - y) ** 2))


def train_predictor(tap_shape, samples, cfg, heldout=None, layer_index=-1,
                    train_class_ids=()):
    """Fit a predictor for a tap of ``tap_shape`` by SGD on mean squared
    error.

    ``samples`` is a sequence of (activation, target) pairs, each
    activation of ``tap_shape``; ``heldout``, when given, is scored
    after training and recorded in the report.
    """
    tap_shape = tuple(tap_shape)
    plan = build_predictor(tap_shape)
    x, y = _stack_samples(tap_shape, samples)
    if x.shape[0] < 2:
        raise DataError("need at least 2 samples to fit a predictor")
    if y.min() == y.max():
        warnings.warn("all predictor targets are identical; the fit cannot "
                      "be validated", stacklevel=2)
    mean = float(x.mean())
    scale = float(x.std()) or 1.0
    xn = ((x - mean) / scale).astype(np.float32)

    net = Network.build(plan, tap_shape, seed=rng_for(cfg.seed, 0xF17).integers(2**31))
    epoch_losses = []
    for net, loss in sgd_epochs(net, xn, y[:, None], cfg, "MSE"):
        epoch_losses.append(loss)

    model = PredictorModel(net, layer_index, mean, scale,
                           tuple(train_class_ids))
    report = TrainingReport(epoch_losses, len(xn), _mse(net, xn, y))
    if heldout is not None:
        hx, hy = _stack_samples(tap_shape, heldout)
        report.heldout_mse = _mse(net, model.normalize(hx), hy)
    return model, report


def predict_applicability(model: PredictorModel, activation) -> float:
    """Predicted applicability for one activation, clamped to [0, 1]."""
    arr = np.asarray(activation, dtype=np.float32)
    return float(predict_batch(model, arr[None])[0])


def predict_batch(model: PredictorModel, activations) -> np.ndarray:
    """Predicted applicabilities for ``[n, *tap]`` activations, clamped
    to [0, 1]."""
    arr = np.asarray(activations, dtype=np.float32)
    tap_shape = model.net.input_shape
    if arr.shape[1:] != tap_shape:
        raise ShapeMismatchError(
            f"activations {arr.shape} do not match tap {tap_shape}")
    out = predict(model.net, model.normalize(arr))[:, 0]
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class ClassFidelity:
    class_id: int
    actual_app: float
    mean_predicted: float
    abs_err: float
    n_samples: int


@dataclass
class EvaluationReport:
    rows: list
    overall_mse: float


def evaluate_predictor(model: PredictorModel, held_out) -> EvaluationReport:
    """Score held-out classes the predictor never trained on.

    ``held_out`` maps class_id to (activations, measured class App).
    Reports per-class mean prediction and |mean predicted - actual|,
    plus the per-image MSE over all held-out samples.
    """
    overlap = sorted(set(held_out) & set(model.train_class_ids))
    if overlap:
        raise LeakageError(
            f"held-out classes {overlap} were in the predictor's training set")
    rows = []
    sq_errs = []
    for cid in sorted(held_out):
        acts, actual = held_out[cid]
        preds = predict_batch(model, np.asarray(acts))
        mean_pred = float(preds.mean())
        rows.append(ClassFidelity(cid, float(actual), mean_pred,
                                  abs(mean_pred - float(actual)), len(preds)))
        sq_errs.append((preds.astype(np.float64) - float(actual)) ** 2)
    overall = float(np.mean(np.concatenate(sq_errs))) if sq_errs else 0.0
    return EvaluationReport(rows, overall)


# ---------------------------------------------------------------------
# Checkpoints (shared binary layout, predictor magic)
# ---------------------------------------------------------------------

def save_predictor(model: PredictorModel, path):
    extra = {
        "layer_index": model.layer_index,
        "in_mean": model.in_mean,
        "in_scale": model.in_scale,
        "train_class_ids": list(model.train_class_ids),
    }
    checkpoint_save(model.net, path, magic=PREDICTOR_MAGIC, extra=extra)


def load_predictor(path) -> PredictorModel:
    net, extra = checkpoint_load_with_extra(path, magic=PREDICTOR_MAGIC)
    return PredictorModel(net, extra["layer_index"], extra["in_mean"],
                          extra["in_scale"], tuple(extra["train_class_ids"]))
