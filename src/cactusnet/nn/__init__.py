"""Minimal neural-network engine: layers, training, freezing, checkpoints."""

from .checkpoint import checkpoint_load, checkpoint_load_with_extra, checkpoint_save
from .layers import LayerSpec, conv2d, softmax
from .network import (Network, TrainConfig, accuracy, backward, forward,
                      freeze_through, one_hot, output_shapes, predict,
                      replace_head, sgd_epochs, sgd_step, train_classifier)

__all__ = [
    "LayerSpec", "Network", "TrainConfig", "accuracy", "backward",
    "checkpoint_load", "checkpoint_load_with_extra", "checkpoint_save",
    "conv2d", "forward", "freeze_through", "one_hot", "output_shapes",
    "predict", "replace_head", "sgd_epochs", "sgd_step", "softmax",
    "train_classifier",
]
