#!/usr/bin/env python3
"""Re-run the steadiness comparison the benchmark's bounds rest on.

    python3 perfbench/steadiness.py [--workloads verify,train,tune,serve]

Run from the repository root. For each workload it makes two sets of ten
perfbench/run.py --trace 0 runs of BENCHMARK.json's run_seconds each, with a
different seed every run, then prints, per end-to-end metric, the median,
the quartiles (Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the second set's median shift from the first (as a
share of the first, positive when worse). The comparison holds when every
spread (setup_s excepted) is within the metric's bound in BENCHMARK.json,
the second median is not worse than the first by more than the bound, and
the share of failed operations is the same in every run; the exit code is 1
when it does not. A spread above a third of its bound, the margin the bounds
aim for, is marked "wide" but does not fail the comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    within = True
    for w in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            runs = [run_once(w, 1000 * (s + 1) + i, seconds)
                    for i in range(RUNS)]
            sets.append(runs)
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print("%s set %d: failed share %s, attempted %s" % (
                w, s + 1, shares, [r["attempted"] for r in runs]))
            if len(shares) != 1:
                within = False
        first_shares = {r["failed"] / r["attempted"] for r in sets[0]}
        for runs in sets[1:]:
            if {r["failed"] / r["attempted"] for r in runs} != first_shares:
                within = False
        print("%-8s %-18s %12s %12s %12s %8s %8s %9s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound",
            "shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            base = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                if base is None:
                    base = med
                worse = (med - base) / base if m["better"] == "lower" \
                    else (base - med) / base
                timed = name != "setup_s"
                ok = (not timed or spread <= bound) and worse <= bound
                within = within and ok
                print("%-8s %-18s %12.6g %12.6g %12.6g %8.4f %8.3f %+9.4f%s%s" % (
                    w if k == 0 else "", name if k == 0 else "", med, q1, q3,
                    spread, bound, worse, "" if ok else "  OUT OF BOUND",
                    "  wide" if timed and spread > bound / 3 else ""))
        sys.stdout.flush()
    print("within bounds" if within else "OUT OF BOUND")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
