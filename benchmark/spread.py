#!/usr/bin/env python3
"""Runs one workload once per seed and reports each metric's spread.

    python3 benchmark/spread.py --workload fb-reddit-p2 --seeds 1 2 3 4 5
    python3 benchmark/spread.py --workload fb-reddit-p2 --seeds 1 1 1 1 1   # run-to-run noise

For every metric it prints the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. With BENCHMARK.json
at the repository root, an end-to-end metric is marked "ok" when its
spread is below a third of its bound (set-up time's spread is not bounded).
Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="also write the runs and the table here")
    args = ap.parse_args()

    bounds, seconds = {}, args.seconds
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        seconds = seconds or spec["run_seconds"]
    seconds = seconds or 10

    runs = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **r})
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              file=sys.stderr)

    table = []
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}, {seconds} s each")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  verdict")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        verdict = ""
        if name == "setup_s":
            verdict = "spread not bounded"
        elif name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
        table.append({"metric": name, "median": med, "q1": q1, "q3": q3, "spread": spread})
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs, "table": table}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
