"""Benchmark of lctlab: four seeded workloads, timed in reference-probe units.

    python3 bench/run.py --workload absorb --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # all four workloads in turn

Each workload runs in its own fresh, single-threaded Python process (see
child.py); the processes run one after another.  With --trace 0 the last
stdout line is one JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run instead.  The raw results and
the traced spans go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("absorb", "ideals", "thresholds", "padic")
SETUP_EACH_SIDE = 5  # set-up-only processes before and after the run process
RUN_TIMEOUT = 170  # seconds for all the processes of one run together


class BenchError(RuntimeError):
    pass


def _child(workload, seed, mode, deadline, seconds=0.0):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out-dir", OUT]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result within {RUN_TIMEOUT} s of the run") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _correct(res):
    return not res["unexpected_failures"]


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one untraced run.  setup_s is in raw seconds,
    which drift with the machine over tens of seconds, so its samples are
    taken on both sides of the timed passes rather than in one burst."""
    setups = [_child(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
    res = _child(workload, seed, "run", deadline, seconds)
    setups.append(res["setup_s"])
    setups += [_child(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
    metrics = {
        "batch_ref": (statistics.median(res["batch_ref"]), "ref"),
        "job_ref_p50": (statistics.median(res["job_ref"]), "ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "batch_ref": f"median of {res['passes']} passes of {res['jobs_per_pass']} jobs",
        "job_ref_p50": f"median of {len(res['job_ref'])} jobs",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    res["setup_runs_s"] = setups
    res["raw_batch_s_median"] = statistics.median(res["batch_s"])
    return res, metrics, notes


def measure_traced(workload, seed, seconds, deadline):
    """Per-layer metrics: one traced process per workload, each layer read
    on the workload it should move (spans.HOME)."""
    sys.path.insert(0, HERE)
    import spans

    runs = {w: _child(w, seed, "trace", deadline, seconds / len(WORKLOADS)) for w in WORKLOADS}
    res = runs[workload]
    metrics = {}
    for name in sorted(runs["absorb"]["layers"]):
        source = res if name == "polyring.parse_poly.ms" else runs[spans.home_of(name)]
        unit = "ms" if name.endswith("ms") else ("ratio" if name.endswith(("ratio", "density")) else "count")
        metrics[name] = (source["layers"][name], unit)
    metrics["bench.ref_probe_ms"] = (res["probe_ms"], "ms")
    metrics["bench.batch_s"] = (statistics.median(res["batch_s"]), "s")
    metrics["bench.trace_overhead"] = (
        statistics.median(res["traced_batch_ref"]) / statistics.median(res["batch_ref"]), "ratio")
    res["correct_all"] = all(_correct(r) for r in runs.values())
    notes = {"bench.trace_overhead": "traced / untraced batch_ref, same process"}
    return res, metrics, notes


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_TIMEOUT
    res, metrics, notes = (measure_traced if trace else measure)(workload, seed, seconds, deadline)
    correct = res.get("correct_all", _correct(res))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<10} {name:<40} {value:>14.6g} {unit}{note}")
    print(f"{workload:<10} attempted {res['attempted']}  failed {res['failed']}"
          f"  correct {str(correct).lower()}")
    for key, why in {**res["known_failures"], **res["unexpected_failures"]}.items():
        print(f"{workload:<10}   failed: {key}  [{why}]")
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lctlab", "__init__.py")):
        print(f"run.py: no lctlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
