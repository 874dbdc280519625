"""cactusnet benchmark: one CLI phase per workload, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,predictors,stream} \
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one client.  A run writes a config and
generated inputs from ``--seed`` into a fresh work directory, builds the
workload's prerequisites by running the upstream CLI phases (``setup_s``,
the median of ``SETUP_REPS`` set-ups, which must be byte-identical), and
runs the timed CLI phase as a child process again and again, between
the later set-ups' phases and after them, until ``--seconds`` have
passed, each time from a fresh copy of a finished set-up, and reports
medians.  Every child runs with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS at 1, so the sweep's two pool threads are the only
compute threads on a 2-core machine.

The speed of a shared host drifts by a third and more over minutes, so
``wall_rel`` and ``cpu_rel`` give the timed phase's wall and CPU time in
units of a fixed reference computation (``reference.py``) timed just
before and just after each run of the phase: the median over the run of
each run's time over the mean of its two reference times.  The plain
seconds are printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` half the time goes to untraced runs and half to runs
under the outside-in tracer (``traced_cli.py``), and the last line
carries the per-layer metrics, ``trace.overhead_ratio`` included.  The
lines before it name every metric with its unit, the workload-specific
throughput and failure ratio, and the environment.

Exit status: 0 when every correctness gate holds, 1 when one fails,
2 when the checkout has no cactusnet sources to benchmark.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layer_metrics  # noqa: E402
from tracer import load_spans  # noqa: E402
from workloads import SIZES, WORKERS, WORKLOADS, Outcome, SetupError  # noqa: E402

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REFERENCE = [sys.executable, str(HERE / "reference.py")]
END_TO_END = (("setup_s", "s"), ("wall_rel", "1"), ("cpu_rel", "1"),
              ("peak_rss_mb", "MB"))


class Bench:
    """One benchmark run: its work directory, child environment and timings."""

    def __init__(self, root: Path, workload, seed: int, size: str):
        self.wl = workload
        self.seed = seed
        self.size = size
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("CNL_")}
        env.update(THREAD_ENV)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
            "PYTHONPATH") else src
        self.env = env

    # -- child processes -----------------------------------------------
    def child(self, cwd: Path, argv):
        """Run argv to completion; returns (exit code, wall s, cpu s, rss MB).

        Output goes to ``cwd/phases.log``; see ``log_tail``."""
        with open(cwd / "phases.log", "a", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    @staticmethod
    def log_tail(cwd: Path, lines=5):
        path = cwd / "phases.log"
        text = path.read_text(encoding="utf-8", errors="replace") if path.is_file() else ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def reference(self) -> float:
        """Wall time of one run of ``reference.py``."""
        code, wall = self.child(self.work, REFERENCE)[:2]
        if code != 0:
            raise SetupError(f"reference.py exited {code}: " + self.log_tail(self.work))
        return wall

    def cli(self, cwd: Path, verb, spans=None):
        head = [sys.executable, "-m", "cactusnet"] if spans is None else [
            sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        return self.child(cwd, head + ["--config", "config.json", *verb])

    # -- set-up ----------------------------------------------------------
    def setup_once(self, d: Path, after_phase):
        """Write the config, run the upstream phases and generate inputs.

        ``after_phase()`` runs after each upstream phase; the set-up time
        returned leaves out the time spent in it."""
        d.mkdir(parents=True)
        spent = 0.0
        start = time.perf_counter()
        (d / "config.json").write_text(
            json.dumps(self.wl.config(self.seed, self.size), indent=2,
                       sort_keys=True))
        for verb in self.wl.upstream:
            code = self.cli(d, verb)[0]
            if code != 0:
                raise SetupError(f"set-up phase {' '.join(verb)} exited {code}: "
                                 + self.log_tail(d))
            spent += time.perf_counter() - start
            after_phase()
            start = time.perf_counter()
        extra = self.wl.setup_extra(self.child, d, self.seed, self.size)
        if extra is not None and extra[0] != 0:
            raise SetupError(f"input generation exited {extra[0]}: " + self.log_tail(d))
        return spent + time.perf_counter() - start

    # -- timed phase -----------------------------------------------------
    def timed(self, setup_dir: Path, index: int, traced: bool):
        d = self.work / f"rep{index}"
        d.mkdir()
        self.wl.stage(setup_dir, d)
        spans = d / "spans.jsonl" if traced else None
        code, wall, cpu, rss = self.cli(d, self.wl.verb, spans)
        try:
            outcome = self.wl.check(d, code, self.size, first=index == 0)
        except (OSError, ValueError, KeyError) as exc:
            outcome = Outcome(1, 1, [f"unreadable {self.wl.name} outputs: {exc!r}"])
            code = code or 1
        if code != 0:
            outcome.problems.append(self.log_tail(d))
        rep = {"code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
               "outcome": outcome, "digest": digest(d, self.wl.artifacts)}
        if code == 0:
            rep["work"] = self.wl.work(d, self.size)
        if traced and spans.is_file():
            rep["layers"] = layer_metrics.compute(load_spans(spans))
        shutil.rmtree(d)
        return rep


def digest(d: Path, patterns):
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(d.glob(pattern)):
            if path.is_file():
                h.update(str(path.relative_to(d)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, workers: int):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    commit = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                env=git_env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, **THREAD_ENV,
            "workers": workers, "git_commit": commit,
            "src_sha256": digest(root / "src", ("**/*.py",))}


def run(args, root: Path):
    wl = WORKLOADS[args.workload]
    bench = Bench(root, wl, args.seed, args.size)
    problems, reps, setup_times, setup_digests = [], [], [], set()
    # The timed phase repeats until its runs add up to --seconds (half
    # untraced, half traced with --trace 1); set-up, staging and output
    # checks are not counted.  A shared host's speed drifts over stretches
    # of seconds, so the untraced runs are spread evenly over the whole
    # run: from the first finished set-up on, a share of them runs after
    # every upstream phase of the next set-up and after each set-up ends,
    # always from the latest finished set-up.
    budget = args.seconds / 2 if args.trace else args.seconds
    slots = SETUP_REPS + (SETUP_REPS - 1) * len(wl.upstream)
    ready = None        # the latest finished set-up directory
    filled = 0

    def timed_total():
        return sum(r["wall_s"] for r in reps)

    def pace():
        nonlocal filled
        if ready is None:
            return
        filled += 1
        while timed_total() < budget * filled / slots:
            before = bench.reference()
            reps.append(bench.timed(ready, len(reps), traced=False))
            reps[-1]["ref_s"] = (before + bench.reference()) / 2

    try:
        for i in range(SETUP_REPS):
            setup_dir = bench.work / f"setup{i}"
            setup_times.append(bench.setup_once(setup_dir, pace))
            setup_digests.add(digest(setup_dir, ("manifest.json", "stream.*", "out/*")))
            if ready is not None:
                shutil.rmtree(ready)
            ready = setup_dir
            pace()
        while args.trace:
            reps.append(bench.timed(ready, len(reps), traced=True))
            if reps[-1]["code"] != 0 or timed_total() >= args.seconds:
                break
        if len(setup_digests) != 1:
            problems.append("set-up artifacts differ between identical set-ups")
        for r in reps:
            problems += r["outcome"].problems
        if len({r["digest"] for r in reps}) != 1:
            problems.append("compared artifacts differ between runs"
                            + (" (traced vs untraced)" if args.trace else ""))
    except SetupError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        parent = bench.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    attempted = sum(r["outcome"].attempted for r in reps) or 1
    failed = sum(r["outcome"].failed for r in reps) if reps else attempted
    plain = [r for r in reps if "layers" not in r and r["code"] == 0]
    traced = [r for r in reps if "layers" in r]

    def med(key, rows):
        vals = [r[key] for r in rows]
        return statistics.median(vals) if vals else 0.0

    def rel(key):
        return statistics.median(r[key] / r["ref_s"] for r in plain) if plain else 0.0

    e2e = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "wall_rel": rel("wall_s"),
        "cpu_rel": rel("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb", plain),
    }
    units = dict(END_TO_END)
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} setups={len(setup_times)} runs={len(plain)} "
          f"traced_runs={len(traced)}")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  wall_s = {med('wall_s', plain):.6g} s")
    print(f"  cpu_s = {med('cpu_s', plain):.6g} s")
    print(f"  reference_s = {med('ref_s', plain):.6g} s")
    throughput = statistics.median(
        r["work"] / r["wall_s"] for r in plain) if plain else 0.0
    print(f"  {wl.throughput} = {throughput:.6g} 1/s")
    print("  setup runs (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    print("  timed runs wall (s): " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("  reference runs (s): " + " ".join(f"{r['ref_s']:.3f}" for r in plain))
    print(f"  failed_ratio = {failed / attempted:.6g} 1 ({failed}/{attempted})")
    for p in dict.fromkeys(problems):
        print(f"  GATE FAILED: {p}")

    if args.trace:
        catalogue = layer_metrics.catalogue()
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  if traced else 0.0 for name, _, _ in catalogue[:-1]}
        values["trace.overhead_ratio"] = (
            med("wall_s", traced) / med("wall_s", plain) if traced and plain else 0.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in catalogue}
        for name, unit, _ in catalogue:
            print(f"  {name} = {values[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name, _ in END_TO_END}
    print(json.dumps({"env": environment(root, WORKERS)}, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input sizing; 'tiny' exists for the self-tests")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cactusnet" / "cli.py").is_file():
        print(f"error: no cactusnet sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
