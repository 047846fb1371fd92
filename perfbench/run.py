#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--perturb drop|shorten]

The first run configures and builds the benchmark package (perfbench/
CMakeLists.txt, which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild only what changed. Build output goes to stderr. The
binary's stdout is passed through unchanged: its last line is the JSON
result. The exit code is the binary's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds; returns the binary's path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--perturb", choices=["drop", "shorten"])
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.trace == "1":
        trace_file = os.path.join(out, "trace-%s-%d.jsonl" % (args.workload,
                                                              args.seed))
        cmd += ["--trace-out", trace_file]
        print("spans written to %s" % trace_file)
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
