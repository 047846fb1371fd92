#!/usr/bin/env python3
"""Negative controls of the repository benchmark's checks.

Usage, from the root of a checkout:

    python3 perfbench/controls.py [--workload NAME ...]

Runs each workload (seed 1, one pass) twice with a benchmark-side
perturbation of the delivered answer: one result tuple dropped (--perturb
drop), and one result interval shortened so it ends before a checked
instant (--perturb shorten). Each perturbed run must report "correct": false and count at
least one failed operation; a run that still passes means the check does
not bite. Exits 1 if any control passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        for perturb in ("drop", "shorten"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   w, "--seed", "1", "--seconds", "1", "--trace", "0",
                   "--perturb", perturb]
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            mismatch = [l for l in lines if l.startswith("MISMATCH")]
            caught = (done.returncode == 0 and result.get("correct") is False
                      and result.get("failed", 0) >= 1)
            ok = ok and caught
            print("%-14s %-8s correct=%-5s attempted=%-9s failed=%-3s %s" %
                  (w, perturb, result.get("correct"), result.get("attempted"),
                   result.get("failed"),
                   "caught" if caught else "NOT CAUGHT"))
            for line in mismatch[:2]:
                print("    " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
