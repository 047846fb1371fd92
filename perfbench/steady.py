#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--workload NAME ...]

For each workload, runs two sets of ten untraced runs of BENCHMARK.json's
run_seconds on one build, interleaved (A1 B1 A2 B2 ...), set A on seeds
1..10 and set B on seeds 11..20, so the comparison includes seed-to-seed
variation. Prints, per end-to-end metric, each set's median and quartiles
(Python's statistics.quantiles, n=4), the quartile spread as a share of
the median, and the set-to-set change of the median in the metric's worse
direction, next to its bound from BENCHMARK.json. A metric passes when
both spreads and the change stay within its bound. Every run must be
correct with no failed operation. Exits 1 if any check fails. Raw results
are saved to <build dir>/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (build_dir)

RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {}
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, seed in (("A", 1 + i), ("B", 1 + RUNS + i)):
                sets[name].append(one_run(w, seed, seconds))
                print("  %s %s seed %d done" % (w, name, seed), file=sys.stderr)
        results[w] = sets
        print("\n== %s (%d runs per set, %g s each)" % (w, RUNS, seconds))
        print("%-18s %-8s %12s %12s %12s %7s | %12s %7s | %8s %6s %s" %
              ("metric", "unit", "A median", "A q1", "A q3", "A sprd",
               "B median", "B sprd", "B vs A", "bound", "ok"))
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            am, aq1, aq3, asp = spread(a)
            bm, _, _, bsp = spread(b)
            change = (bm - am) / am if am else 0.0
            worse = change if m["better"] == "lower" else -change
            good = (worse <= m["bound"] and asp <= m["bound"]
                    and bsp <= m["bound"])
            ok = ok and good
            print("%-18s %-8s %12.5g %12.5g %12.5g %6.1f%% | %12.5g %6.1f%% |"
                  " %+7.1f%% %5.0f%% %s" %
                  (m["name"], m["unit"], am, aq1, aq3, asp * 100, bm,
                   bsp * 100, worse * 100, m["bound"] * 100,
                   "ok" if good else "FAIL"))
        for name in ("A", "B"):
            att = sum(r["attempted"] for r in sets[name])
            fail = sum(r["failed"] for r in sets[name])
            correct = all(r["correct"] for r in sets[name])
            print("set %s: attempted %d, failed %d, all correct %s" %
                  (name, att, fail, correct))
            ok = ok and correct and fail == 0

    out = os.path.join(run.build_dir(), "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f)
    print("\nraw results: %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
