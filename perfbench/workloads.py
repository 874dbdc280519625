"""The three workloads: their config, upstream phases, timed phase and gates.

Every workload uses the default architecture, taps [2, 5, 7, 10], k=6
and the default batch sizes, so each kernel sees the shapes it sees at
the desk-default config; only images per class, epochs and stream
length are scaled down so that a run fits in well under a minute.

* ``sweep`` times ``measure`` at workers=2 from an empty journal: the
  1-vs-1 jobs, the frozen-prefix forwards, the suffix SGD and the
  thread pool.  No predictor or cactus code runs.
* ``predictors`` times ``train-predictors`` (single thread): the nn
  engine at the predictor plans' shapes (1x1 convs with 32/64 filters
  on the 9x9x8 tap, MLPs on the flat taps).  No sweep job, no routing.
* ``stream`` times ``cactus-run`` over unseen draws of all 22 classes
  arriving in class bursts: batch-size-1 inference, predictor calls,
  routing, growth bookkeeping and tree writes.  No training.
"""

import csv
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

SIZES = {
    # per_class: images per synthetic class (2/3 train, 1/3 test).
    # stream_pool unseen images per class; stream_per_class of them, drawn
    # by the seed, make one class burst.
    "full": {"per_class": 36, "base_epochs": 8, "pair_epochs": 1,
             "predictor_epochs": 12, "stream_pool": 125, "stream_per_class": 100},
    # for the benchmark's own smoke test only
    "tiny": {"per_class": 12, "base_epochs": 1, "pair_epochs": 1,
             "predictor_epochs": 1, "stream_pool": 4, "stream_per_class": 2},
}

TAPS = [2, 5, 7, 10]
K = 6
WORKERS = 2
NUM_CLASSES = 22     # 11 per family, the default corpus


def config_doc(model_seed, size):
    s = SIZES[size]
    return {
        "manifest": "manifest.json",
        "dataset": {"type": "synthetic", "per_class": s["per_class"],
                    "seed": model_seed},
        "taps": TAPS,
        "k": K,
        "train": {
            "base": {"learning_rate": 0.08, "epochs": s["base_epochs"],
                     "batch_size": 16},
            "pair": {"learning_rate": 0.05, "epochs": s["pair_epochs"],
                     "batch_size": 32},
            "predictor": {"learning_rate": 0.02, "epochs": s["predictor_epochs"],
                          "batch_size": 32},
        },
        "growth": {"max_branches_per_node": 4, "consolidation_window": 25},
        "workers": WORKERS,
        "master_seed": model_seed,
        "out_dir": "out",
    }


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(d):
    return _read_json(d / "manifest.json")


def _measured_ids(manifest):
    probes = set(manifest["probe_set"])
    return [c["class_id"] for c in manifest["classes"] if c["class_id"] not in probes]


class SetupError(RuntimeError):
    """The prerequisites of a timed run could not be built."""


@dataclass
class Outcome:
    """What one timed phase did: operations attempted and failed, and
    every correctness problem found in its outputs."""
    attempted: int
    failed: int
    problems: list


class Workload:
    name = ""
    throughput = ""        # name of the workload's unit of work per second
    verb = ()
    upstream = ()          # CLI verbs run, in order, to set the phase up
    inputs = ()            # files a timed run needs from the set-up dir
    artifacts = ()         # outputs compared byte for byte across runs

    def config(self, seed, size):
        """The corpus and every model derive from the seed."""
        return config_doc(seed, size)

    def setup_extra(self, phase_runner, d, seed, size):
        """Generated inputs beyond the upstream phases."""

    def stage(self, setup_dir, rep_dir):
        """Copy the set-up outputs the timed phase reads into ``rep_dir``."""
        for pattern in self.inputs:
            for src in sorted(setup_dir.glob(pattern)):
                dst = rep_dir / src.relative_to(setup_dir)
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)

    def check(self, d, code, size, first) -> Outcome:
        """Correctness gates on one timed run's outputs.  Gates that load
        the package run on the ``first`` run only: the artifact digests
        tie every later run to it byte for byte."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    throughput = "jobs_per_s"
    verb = ("measure",)
    upstream = (("prepare",), ("train-base",))
    inputs = ("config.json", "manifest.json", "out/base.ckpt")
    artifacts = ("out/records.csv", "out/applicability.csv",
                 "out/subset_curves.csv", "out/measure_meta.json")

    def stage(self, setup_dir, rep_dir):
        super().stage(setup_dir, rep_dir)
        # measure resumes from any journal it finds; a stale one would
        # turn the timed run into a no-op
        if (rep_dir / "out" / "records.csv").exists():
            raise SetupError("sweep must start without records.csv")

    def check(self, d, code, size, first):
        expected = self.work(d, size)
        if code != 0:
            return Outcome(expected, expected, [f"measure exited {code}"])
        problems = []
        rows = _read_csv(d / "out" / "records.csv")
        meta = _read_json(d / "out" / "measure_meta.json")
        failures = len(meta["failures"])
        if len(rows) != expected:
            problems.append(f"{len(rows)} records, expected {expected}")
        if len({(r["x"], r["un_j"], r["layer"]) for r in rows}) != len(rows):
            problems.append("duplicate (x, un_j, layer) records")
        if failures:
            problems.append(f"{failures} failed jobs")
        bad = [r for r in rows if not 0.0 <= float(r["xi"]) <= 1.0]
        if bad:
            problems.append(f"{len(bad)} records with xi outside [0, 1]")
        return Outcome(expected, max(failures, expected - len(rows)), problems)

    def work(self, d, size):
        return len(_measured_ids(_manifest(d))) * K * len(TAPS)


class Predictors(Workload):
    name = "predictors"
    throughput = "samples_per_s"
    verb = ("train-predictors",)
    upstream = (("prepare",), ("train-base",), ("measure",))
    inputs = ("config.json", "manifest.json", "out/base.ckpt", "out/records.csv")
    artifacts = ("out/predictor_summary.json", "out/predictor_eval.csv") + tuple(
        f"out/predictor_tap{t:02d}.ckpt" for t in TAPS)

    def check(self, d, code, size, first):
        if code != 0:
            return Outcome(len(TAPS), len(TAPS), [f"train-predictors exited {code}"])
        problems = []
        out = d / "out"
        ckpts = sorted(p.name for p in out.glob("predictor_tap*.ckpt"))
        want = sorted(f"predictor_tap{t:02d}.ckpt" for t in TAPS)
        if ckpts != want:
            problems.append(f"predictor checkpoints {ckpts}, expected {want}")
        summary = _read_json(out / "predictor_summary.json")
        held = summary["heldout_classes"]
        rows = _read_csv(out / "predictor_eval.csv")
        keys = sorted((int(r["class"]), int(r["layer"])) for r in rows)
        if keys != sorted((c, t) for c in held for t in TAPS):
            problems.append(f"eval rows {keys} are not held-out classes x taps")
        mses = [e[k] for e in summary["layers"] for k in ("train_mse", "heldout_mse")]
        mses += [float(r["abs_err"]) for r in rows]
        if not all(isinstance(v, float) and math.isfinite(v) for v in mses):
            problems.append("non-finite predictor MSE")
        failed = sum(1 for t in TAPS if f"predictor_tap{t:02d}.ckpt" not in ckpts)
        return Outcome(len(TAPS), failed, problems)

    def work(self, d, size):
        """Training samples x epochs, summed over taps."""
        summary = _read_json(d / "out" / "predictor_summary.json")
        train_classes = len(_measured_ids(_manifest(d))) - len(summary["heldout_classes"])
        s = SIZES[size]
        per_class_train = int(s["per_class"] * _manifest(d)["train_fraction"])
        return train_classes * per_class_train * s["predictor_epochs"] * len(TAPS)


class Stream(Workload):
    name = "stream"
    throughput = "inputs_per_s"
    verb = ("cactus-run", "stream.json")
    upstream = (("prepare",), ("train-base",), ("measure",), ("train-predictors",))
    inputs = ("config.json", "manifest.json", "stream.json", "stream.bin",
              "out/base.ckpt", "out/records.csv", "out/predictor_tap*.ckpt")
    artifacts = ("out/growth_log.jsonl", "out/verdict_histogram.csv", "out/tree/*")

    # Routing cost per input depends on how deep the trained tree sends
    # it, and that mix shifts with the model.  The corpus and the models
    # are therefore fixed, and the seed draws the stream: the order of the
    # class bursts and which unseen images each burst holds.
    MODEL_SEED = 3

    def config(self, seed, size):
        return config_doc(self.MODEL_SEED, size)

    def setup_extra(self, phase_runner, d, seed, size):
        script = Path(__file__).with_name("make_stream.py")
        s = SIZES[size]
        return phase_runner(d, [sys.executable, str(script), "config.json",
                                str(seed), str(s["stream_pool"]),
                                str(s["stream_per_class"])])

    def inputs_count(self, size):
        return NUM_CLASSES * SIZES[size]["stream_per_class"]

    def check(self, d, code, size, first):
        n = self.inputs_count(size)
        if code != 0:
            return Outcome(n, n, [f"cactus-run exited {code}"])
        problems = []
        out = d / "out"
        with open(out / "growth_log.jsonl", encoding="utf-8") as fh:
            decisions = [json.loads(line) for line in fh if line.strip()][1:]
        if [x["input_index"] for x in decisions] != list(range(n)):
            problems.append(f"{len(decisions)} decisions for {n} inputs")
        total = sum(int(r["count"]) for r in _read_csv(out / "verdict_histogram.csv"))
        if total != n:
            problems.append(f"verdict histogram sums to {total}, expected {n}")
        cfg = _read_json(d / "config.json")
        limit = cfg["growth"]["max_branches_per_node"]
        tree = _read_json(out / "tree" / "tree.json")

        def widest(node):
            own = sum(1 for c in node["children"] if c["provisional"]
                      and c["branch_id"] != node["branch_id"])
            return max([own] + [widest(c) for c in node["children"]])
        if widest(tree["root"]) > limit:
            problems.append(f"a node has more than {limit} branches")
        if first:
            problems += _replay_problems(d)
        return Outcome(n, max(0, n - len(decisions)), problems)

    def work(self, d, size):
        return self.inputs_count(size)


def _replay_problems(d):
    """Replaying the growth log onto the initial tree must rebuild the
    saved topology, parameters included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from cactusnet import cactus
    from cactusnet.config import load_config
    from cactusnet.runner import build_cactus_tree
    cfg = load_config(d / "config.json")
    initial, _ = build_cactus_tree(cfg)
    replayed = cactus.replay_log(initial, cactus.load_growth_log(
        d / "out" / "growth_log.jsonl"))
    saved = cactus.load_tree(d / "out" / "tree")
    if replayed.topology() != saved.topology():
        return ["replay_log does not rebuild the grown tree"]
    return []


WORKLOADS = {w.name: w for w in (Sweep(), Predictors(), Stream())}
