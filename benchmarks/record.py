"""Record benchmark runs in ``BENCH_<label>.json`` at the root of a checkout.

Runs the benchmark (``perfbench/run.py``, as ``BENCHMARK.json`` names it)
once per seed for each workload, for the ``run_seconds`` that
``BENCHMARK.json`` fixes, and keeps, per metric, every run's value
and their median, quartiles and interquartile range, with the
environment line each run prints (interpreter, numpy, BLAS, git commit
and ``src/`` hash).

With ``--parent DIR`` every seed also runs in the checkout at DIR, the
two runs of a pair in alternating order, and each metric gets the
number of pairs the change wins (ties count for neither side), whether
that is a gain (wins in at least nine tenths of the pairs, and medians
further apart than the parent's interquartile range) and, for an
end-to-end metric, whether the change's median stays within the bound
``BENCHMARK.json`` fixes.

Usage (from the root of the checkout to record; stdlib only):

    python3 benchmarks/record.py --label NAME --seeds 201-210 \
        [--workloads sweep predictors stream] [--trace 0] [--parent DIR]

Exit status is 1 when any run failed a gate or an operation, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_range(text):
    """``201-210``: the seeds 201 to 210, both included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(root: Path, command, workload, seed, seconds, trace):
    """One benchmark run in ``root``; returns its record."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    env = next((d["env"] for d in lines if "env" in d), None)
    result = next((d for d in lines if "metrics" in d), None)
    if result is None:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return {"exit": proc.returncode, "correct": False, "env": env,
                "error": " | ".join(tail)}
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "env": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def summary(values):
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def compare(pairs, change, parent, spec):
    """Pairwise wins, the gain rule and the regression bound for one metric."""
    better = spec.get("better", "lower")
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for c, p in pairs)
    losses = sum(sign * (c - p) < 0 for c, p in pairs)
    gap = sign * (change["median"] - parent["median"])
    out = {"better": better, "wins": wins, "losses": losses, "pairs": len(pairs),
           "gain": wins >= 0.9 * len(pairs) and gap > parent["iqr"]}
    if "bound" in spec:
        limit = abs(parent["median"]) * spec["bound"]
        out["bound"] = spec["bound"]
        out["within_bound"] = -gap <= limit
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="lo-hi")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload BENCHMARK.json lists")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--parent", type=Path, default=None,
                   help="checkout to pair every run with")
    args = p.parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = {"change": root}
    if args.parent:
        sides["parent"] = args.parent.resolve()

    doc = {"label": args.label, "command": bench["command"], "seconds": seconds,
           "trace": args.trace, "seeds": args.seeds,
           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "env": {side: [] for side in sides}, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for i, seed in enumerate(args.seeds):
            order = list(sides)[::-1] if i % 2 else list(sides)
            run = {"seed": seed, "first": order[0]}
            for side in order:
                rec = run_once(sides[side], bench["command"], workload, seed,
                               seconds, args.trace)
                env = rec.pop("env")
                if env is not None and env not in doc["env"][side]:
                    doc["env"][side].append(env)
                run[side] = rec
                ok &= rec["correct"] and rec["exit"] == 0
                got = rec.get("metrics", {})
                print(f"{workload} seed {seed} {side}: exit {rec['exit']}, "
                      + (rec["error"] if "error" in rec else
                         f"wall_rel {got['wall_rel']:.4g}" if "wall_rel" in got
                         else f"{len(got)} metrics"),
                      file=sys.stderr, flush=True)
            runs.append(run)
        metrics = {}
        good = [r for r in runs if all("metrics" in r[s] for s in sides)]
        names = good[0]["change"]["metrics"] if good else {}
        for name in names:
            entry = {"unit": good[0]["change"]["units"][name]}
            for side in sides:
                entry[side] = summary([r[side]["metrics"][name] for r in good])
            if args.parent:
                entry.update(compare([(r["change"]["metrics"][name],
                                       r["parent"]["metrics"][name]) for r in good],
                                     entry["change"], entry["parent"],
                                     specs.get(name, {})))
            metrics[name] = entry
        for r in runs:
            for side in sides:
                r[side].pop("units", None)
                r[side].pop("metrics", None)
        doc["workloads"][workload] = {"runs": runs, "metrics": metrics}

    out = root / f"BENCH_{args.label}.json"
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(out)
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
