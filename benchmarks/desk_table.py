"""Record the desk-default table in ``BENCH_desk_<label>.json``.

Runs every CLI phase at the desk-default config (the config file ``{}``:
every field at its default) as its own process, one BLAS thread, and
records each phase's wall seconds, CPU seconds, peak RSS and minor page
faults, from the child's resource usage.  The ``cactus-run`` stream is
``--per-class`` images of every class of the manifest.  Each run then
times the tier-1 suite (``TIER1``, run from the root of the checkout)
the same way, under ``tier_1``.

With ``--parent DIR`` each run also builds the pipeline from the
checkout at DIR.  The two sides run phase by phase, a phase of one side
right after the same phase of the other, the side that goes first
alternating from phase to phase and on to the tier-1 suite, so that
both see the same stretch of a drifting host.  Each run also compares
the files the two sides' phases wrote, byte for byte, and records the
names of those that differ.

Usage (from the root of the checkout to record; stdlib only, about
15 s per run and side on 2 cores, plus the tier-1 suite's time):

    python3 benchmarks/desk_table.py --label NAME [--runs 5] [--parent DIR]

Exit status is 1 when a phase or the tier-1 suite exited non-zero,
else 0.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import summary  # noqa: E402

PHASES = ("prepare", "train-base", "measure", "train-predictors", "cactus-run")
MEASURES = ("wall_s", "cpu_s", "peak_rss_mb", "minflt")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def side_env(root: Path) -> dict:
    """The child environment of one side: its sources, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CNL_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(root / "src"))
    return env


def describe(root: Path) -> dict:
    """The interpreter, git commit and ``src/`` hash of one side."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True)
    return {"python": platform.python_version(),
            "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def run_phase(work: Path, env, phase, per_class):
    """One phase as a child process in ``work``; returns its record."""
    verb = [phase]
    if phase == "cactus-run":
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        stream = {"type": "manifest", "per_class": per_class,
                  "classes": sorted(c["class_id"] for c in manifest["classes"])}
        (work / "stream.json").write_text(json.dumps(stream), encoding="utf-8")
        verb.append("stream.json")
    return run_child([sys.executable, "-m", "cactusnet", "--config", "config.json",
                      *verb], work, env, work / "phases.log")


def run_child(argv, cwd, env, log_path):
    """One child process, its output appended to ``log_path``; returns
    its exit code and resource usage."""
    with open(log_path, "a", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}


def digests(work: Path) -> dict:
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file() and p.name != "phases.log"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--per-class", type=int, default=5,
                   help="cactus-run stream images per manifest class")
    p.add_argument("--parent", type=Path, default=None,
                   help="checkout to pair every run with")
    args = p.parse_args(argv)
    root = Path.cwd()
    sides = {"change": root}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    doc = {"label": args.label, "config": {}, "per_class": args.per_class,
           "runs": args.runs,
           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "env": {side: describe(path) for side, path in sides.items()},
           "runs_detail": []}
    ok = True
    scratch = Path(tempfile.mkdtemp(prefix="desk_table_"))
    try:
        for i in range(args.runs):
            work = {side: scratch / f"{side}-{i}" for side in sides}
            for d in work.values():
                d.mkdir()
                (d / "config.json").write_text("{}", encoding="utf-8")
            run = {side: {} for side in sides}
            for j, phase in enumerate((*PHASES, "tier_1")):
                order = list(sides)[::-1] if (i + j) % 2 else list(sides)
                for side in order:
                    env = side_env(sides[side])
                    if phase == "tier_1":
                        rec = run_child([sys.executable, *TIER1], sides[side], env,
                                        scratch / f"{side}-tier_1.log")
                    else:
                        rec = run_phase(work[side], env, phase, args.per_class)
                    run[side][phase] = rec
                    ok &= rec["exit"] == 0
                    print(f"run {i} {phase} {side}: exit {rec['exit']}, "
                          f"{rec['wall_s']:.2f} s, {rec['peak_rss_mb']:.1f} MB",
                          file=sys.stderr, flush=True)
            if args.parent:
                change, parent = digests(work["change"]), digests(work["parent"])
                run["differing_files"] = sorted(
                    name for name in change.keys() | parent.keys()
                    if change.get(name) != parent.get(name))
            doc["runs_detail"].append(run)
            for d in work.values():
                shutil.rmtree(d)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    def summaries(name):
        return {side: {m: summary([r[side][name][m] for r in doc["runs_detail"]])
                       for m in MEASURES}
                for side in sides}

    doc["phases"] = {phase: summaries(phase) for phase in PHASES}
    doc["tier_1"] = summaries("tier_1")
    out = root / f"BENCH_desk_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    for phase, by_side in [*doc["phases"].items(), ("tier-1 suite", doc["tier_1"])]:
        cells = [f"{side} {by_side[side]['wall_s']['median']:.2f} s "
                 f"{by_side[side]['peak_rss_mb']['median']:.1f} MB"
                 for side in sides]
        print(f"{phase:17s} " + " | ".join(cells), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
