"""Outside-in span tracer for the cactusnet package.

The tracer wraps public functions of each cactusnet module without
editing the package: for every target it replaces the original function
object in *every* loaded ``cactusnet`` module that binds it by name
(``cactusnet.applicability.forward``, ``cactusnet.runner.forward`` and
``cactusnet.nn.network.forward`` are the same object, and all three are
patched), and ``uninstall`` puts every binding back.

A span is ``(id, name, start, end, thread, parent, attrs)``.  Each thread
keeps its own stack of open spans, so spans started by the sweep's pool
threads nest under the job that called them rather than under whatever
the main thread is doing.  Spans are held in memory and written out as
JSON lines by ``dump``.
"""

import importlib
import itertools
import json
import os
import sys
import threading
import time


def _shape(a):
    return list(getattr(a, "shape", ()))


def _itemsize(a):
    dtype = getattr(a, "dtype", None)
    return dtype.itemsize if dtype is not None else 8


def _file_bytes(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _tree_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# Attribute extractors take the wrapped function's (args, kwargs, result)
# and return a small dict stored on the span.  They run after the span's
# end time is taken, so their cost is not charged to the span itself.

def _conv_attrs(args, kwargs, _result):
    x, k = args[0], args[1]
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    return {"x": _shape(x), "k": _shape(k), "stride": stride,
            "itemsize": _itemsize(x)}


def _conv_backward_attrs(args, kwargs, _result):
    x, k = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    need_dx = args[4] if len(args) > 4 else kwargs.get("need_dx", True)
    return {"x": _shape(x), "k": _shape(k), "stride": stride,
            "need_dx": bool(need_dx), "itemsize": _itemsize(x)}


def _dense_attrs(args, _kwargs, _result):
    return {"x": _shape(args[0]), "w": _shape(args[1]),
            "itemsize": _itemsize(args[0])}


def _rows_attrs(args, kwargs, _result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    shape = _shape(batch)
    net = args[0]
    rows = 1 if tuple(shape) == tuple(net.input_shape) else shape[0]
    return {"rows": rows}


def _job_attrs(args, _kwargs, _result):
    # pair_separability(net, layer_index, x, un_j, splits, cfg)
    return {"tap": int(args[1]), "x": int(args[2]), "un_j": int(args[3])}


def _run_jobs_attrs(args, kwargs, _result):
    workers = args[5] if len(args) > 5 else kwargs.get("workers", 1)
    return {"workers": int(workers), "jobs": len(args[1])}


def _train_predictor_attrs(args, kwargs, _result):
    samples, cfg = args[1], args[2]
    tap = kwargs.get("layer_index", args[4] if len(args) > 4 else -1)
    return {"tap": int(tap), "samples": len(samples) * int(cfg.epochs)}


def _saved_file_attrs(args, kwargs, _result):
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _saved_tree_attrs(args, kwargs, _result):
    return {"bytes": _tree_bytes(args[1] if len(args) > 1 else kwargs["out_dir"])}


# (defining module, function, span name, attribute extractor)
TARGETS = (
    ("cactusnet.data.synthetic", "generate_synthetic", "data.generate_synthetic", None),
    ("cactusnet.data.synthetic", "load_dataset", "data.load_dataset", None),
    ("cactusnet.data.manifest", "build_splits", "data.build_splits", None),
    ("cactusnet.nn.layers", "conv2d", "nn.layers.conv2d", _conv_attrs),
    ("cactusnet.nn.layers", "conv2d_backward", "nn.layers.conv2d_backward",
     _conv_backward_attrs),
    ("cactusnet.nn.layers", "maxpool2d", "nn.layers.maxpool2d", None),
    ("cactusnet.nn.layers", "maxpool2d_backward", "nn.layers.maxpool2d_backward", None),
    ("cactusnet.nn.layers", "dense", "nn.layers.dense", _dense_attrs),
    ("cactusnet.nn.layers", "dense_backward", "nn.layers.dense_backward", _dense_attrs),
    ("cactusnet.nn.network", "forward", "nn.network.forward", _rows_attrs),
    ("cactusnet.nn.network", "backward", "nn.network.backward", _rows_attrs),
    ("cactusnet.nn.network", "predict", "nn.network.predict", _rows_attrs),
    ("cactusnet.nn.network", "sgd_step", "nn.network.sgd_step", None),
    ("cactusnet.nn.network", "train_classifier", "nn.network.train_classifier", None),
    ("cactusnet.nn.checkpoint", "checkpoint_save", "nn.checkpoint.checkpoint_save",
     _saved_file_attrs),
    # checkpoint_load delegates to checkpoint_load_with_extra; both count as
    # one load (see layer_metrics.calls)
    ("cactusnet.nn.checkpoint", "checkpoint_load", "nn.checkpoint.checkpoint_load", None),
    ("cactusnet.nn.checkpoint", "checkpoint_load_with_extra",
     "nn.checkpoint.checkpoint_load", None),
    ("cactusnet.applicability", "pair_separability",
     "applicability.pair_separability", _job_attrs),
    ("cactusnet.applicability", "run_jobs", "applicability.run_jobs", _run_jobs_attrs),
    ("cactusnet.predictor", "train_predictor", "predictor.train_predictor",
     _train_predictor_attrs),
    ("cactusnet.predictor", "predict_applicability",
     "predictor.predict_applicability", None),
    ("cactusnet.predictor", "predict_batch", "predictor.predict_batch", None),
    ("cactusnet.cactus", "classify_or_flag", "cactus.classify_or_flag", None),
    ("cactusnet.cactus", "route_step", "cactus.route_step", None),
    ("cactusnet.cactus", "grow", "cactus.grow", None),
    ("cactusnet.cactus", "create_branch", "cactus.create_branch", None),
    ("cactusnet.cactus", "save_tree", "cactus.save_tree", _saved_tree_attrs),
    ("cactusnet.cactus", "save_growth_log", "cactus.save_growth_log", None),
    ("cactusnet.runner", "run_measure", "runner.run_measure", None),
    ("cactusnet.runner", "run_train_predictors", "runner.run_train_predictors", None),
    ("cactusnet.runner", "run_cactus", "runner.run_cactus", None),
)

# modules whose import binds the target names; importing them up front
# means the scan below sees every binding before the first call
_BINDERS = ("cactusnet", "cactusnet.nn", "cactusnet.data", "cactusnet.runner",
            "cactusnet.cli", "cactusnet.cactus", "cactusnet.predictor",
            "cactusnet.applicability")


class Tracer:
    """Patch the targets, record spans, restore the bindings."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = itertools.count()
        self._patched = []      # (module, attribute, original)

    # -- patching ------------------------------------------------------
    def install(self):
        for name in _BINDERS:
            importlib.import_module(name)
        wrappers = {}
        for module_name, func_name, span_name, attrs in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrappers[id(original)] = (original,
                                      self._wrap(span_name, original, attrs))
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "cactusnet"
                                      or module_name.startswith("cactusnet.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def bindings(self):
        """(module name, attribute) of every binding currently patched."""
        return [(m.__name__, a) for m, a, _ in self._patched]

    # -- recording -----------------------------------------------------
    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.tid = next(self._threads)
        return stack, local.tid

    def _wrap(self, span_name, fn, attrs):
        clock = time.perf_counter
        record = self.spans.append
        ids = self._ids
        state = self._thread_state

        def traced(*args, **kwargs):
            stack, tid = state()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else None
                record((span_id, span_name, start, end, tid, parent, extra))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path):
        """Write every recorded span as one JSON line, in id order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]
