"""Steadiness check: two sets of runs, each end-to-end metric's spread.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workload absorb

Two sets of runs, each run as long as run_seconds in BENCHMARK.json.  Set k
runs run.py once per seed k*1000+1 .. k*1000+runs.  For each workload
and end-to-end metric it prints, per set, the median and the spread (the
distance between the first and third quartiles as a share of the median,
from statistics.quantiles(values, n=4)), then how much the second median is
worse than the first, next to the bound in BENCHMARK.json.  It also prints
the share of failed operations of every run, which must be identical.
This is how the bounds were set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    """The result line of one run, plus the raw batch seconds from its
    result file under the name raw_batch_s."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace0.json")) as fh:
        raw = json.load(fh)["raw_batch_s_median"]
    result["metrics"]["raw_batch_s"] = {"value": raw, "unit": "s"}
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    worst = {}
    for workload in names:
        sets = []
        for k in (1, 2):
            runs = [one_run(workload, k * 1000 + i, seconds) for i in range(1, args.runs + 1)]
            sets.append(runs)
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
            print(f"{workload} set {k}: failed/attempted {shares}  correct "
                  f"{all(r['correct'] for r in runs)}", flush=True)
        for metric, bound in list(bounds.items()) + [("raw_batch_s", None)]:
            cols = []
            medians = []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                cols.append(f"median {medians[-1]:10.5g}  spread {s:6.3f}")
                if metric not in ("setup_s", "raw_batch_s"):
                    worst[(workload, metric)] = max(worst.get((workload, metric), 0), s / bound)
            sign = 1 if better.get(metric, "lower") == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            print(f"{workload:<10} {metric:<12} " + " | ".join(cols)
                  + f" | worse by {drift:+.3f}  (bound {bound})", flush=True)
    print("largest spread as a share of its bound:",
          max(worst.items(), key=lambda kv: kv[1]) if worst else None)


if __name__ == "__main__":
    main()
