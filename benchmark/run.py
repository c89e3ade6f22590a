#!/usr/bin/env python3
"""Builds the pargcn benchmark from source and runs one workload.

    python3 benchmark/run.py --workload fb-reddit-p2 --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). With --trace 1 the spans are written to
<target>/pargcn-trace/<workload>-seed<n>.json (Chrome trace-event JSON).
The last line of standard output is the result object; build output and
diagnostics go to standard error. Exits non-zero, without a result, when
the build fails or the run does not finish within RUN_TIMEOUT_S.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    """First line of a tool's output, or None when it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None


def git_sha():
    """The commit of the checkout, or 'unknown' outside a git work tree
    (never the commit of an enclosing repository)."""
    top = tool_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return tool_output(["git", "rev-parse", "HEAD"]) or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1

    traced = args.trace == "1"
    binary = os.path.join(target, "release", "pargcn-benchmark-traced" if traced else "pargcn-benchmark")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--git", git_sha(),
        "--rustc", tool_output(["rustc", "--version"]) or "unknown",
    ]
    if traced:
        trace_dir = os.path.join(target, "pargcn-trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
