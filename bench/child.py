"""One workload in one fresh, single-threaded process.

Run by ``run.py``; prints one JSON object on its last stdout line.

Modes:
  setup  import lctlab and parse the inputs, report the time, exit;
  run    set up, then time whole passes over the job list until --seconds
         have passed, a reference probe interleaved before every job;
  trace  like run, alternating untraced and traced passes, and report the
         per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import workloads

# ----------------------------------------------------------------------
# reference probes: fixed code that never calls lctlab, doing the same kind
# of work as the workload it accompanies


def _probe_polys():
    a = {(i, j): Fraction(2 * i + 3 * j + 1, j + 2) for i in range(8) for j in range(8 - i)}
    b = {(i, j): Fraction(i - j, 3 * i + 1) + 1 for i in range(6) for j in range(6 - i)}
    return a, b


_FA, _FB = _probe_polys()


def fraction_probe():
    """Product of two sparse dict polynomials with Fraction coefficients."""
    out = {}
    get = out.get
    for (i, j), ca in _FA.items():
        for (k, l), cb in _FB.items():
            m = (i + k, j + l)
            out[m] = get(m, 0) + ca * cb
    return out


def numpy_probe():
    """int64 modular array arithmetic, then a pure-Python int loop."""
    import numpy as np

    x = np.arange(1, 30001, dtype=np.int64)
    acc = x
    for _ in range(12):
        acc = (acc * x + 3) % 16807
    counts = np.bincount(acc, minlength=16807)
    s = 0
    for i in range(6000):
        s = (s * 7 + i * i) % 1000003
    return int(counts[0]) + s


PROBES = {"absorb": fraction_probe, "ideals": fraction_probe,
          "thresholds": fraction_probe, "padic": numpy_probe}


def _timed(fn):
    """Median of three consecutive runs, so one interruption does not set a
    job's unit."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


# ----------------------------------------------------------------------


def _setup(workload, seed, tracer=None):
    make_inputs, setup, _ = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    t0 = time.perf_counter()
    import lctlab
    import lctlab.cli  # noqa: F401  (the CLI suites run in-process)

    if tracer is not None:
        tracer.install(lctlab)
    parsed = setup(lctlab, inputs)
    return lctlab, parsed, time.perf_counter() - t0


def _run_pass(jobs, probe, tally):
    """One pass: probe, job, checks (untimed), ... probe.  Returns the raw
    job seconds and the probe seconds around each job."""
    job_s, probe_s = [], [_timed(probe)]
    for job in jobs:
        t = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a raising job fails all of its checks
            out, error = None, f"{type(exc).__name__}: {exc}"
        job_s.append(time.perf_counter() - t)
        probe_s.append(_timed(probe))
        if error is None:
            try:
                results = job.check(out)
            except Exception as exc:
                results = [(f"checker raised {type(exc).__name__}: {exc}", False)] * job.nchecks
        else:
            results = [(error, False)] * job.nchecks
        tally.record(job, results)
    return job_s, probe_s


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}
        self.known = {}

    def record(self, job, results):
        if len(results) != job.nchecks:
            raise RuntimeError(f"{job.name}: {len(results)} checks, declared {job.nchecks}")
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                key = f"{job.name}: {label}"
                if job.known_fault and job.known_fault[1] == label:
                    self.known[key] = job.known_fault[0]
                else:
                    self.unexpected[key] = "unexpected"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
    L, parsed, setup_s = _setup(args.workload, args.seed, tracer)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        parse_ms = tracer.layer_totals(0, len(tracer.kind))["polyring.parse_poly"]["ms"]
        tracer.enable(False)

    jobs = workloads.WORKLOADS[args.workload][2](L, parsed, args.out_dir)
    probe = PROBES[args.workload]
    tally = Tally()
    batch_s, batch_ref, job_ref, job_raw, probe_all = [], [], [], [], []
    traced_ref, layer = [], []
    deadline = time.perf_counter() + args.seconds
    npass = 0
    while True:
        traced = tracer is not None and npass % 2 == 1
        if traced:
            tracer.enable(True)
            lo, before = len(tracer.kind), dict(tracer.counts)
        job_s, probe_s = _run_pass(jobs, probe, tally)
        npass += 1
        refs = [t / ((a + b) / 2) for t, a, b in zip(job_s, probe_s, probe_s[1:])]
        if traced:
            tracer.enable(False)
            traced_ref.append(sum(refs))
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            layer.append(spans.pass_metrics(tracer.layer_totals(lo, len(tracer.kind)), counts))
        else:
            batch_s.append(sum(job_s))
            batch_ref.append(sum(refs))
            job_ref.extend(refs)
            job_raw.extend(job_s)
            probe_all.append(probe_s)
        if time.perf_counter() >= deadline and (tracer is None or npass >= 2):
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": len(batch_s),
        "jobs_per_pass": len(jobs),
        "batch_s": batch_s,
        "batch_ref": batch_ref,
        "job_ref": job_ref,
        "job_names": [j.name for j in jobs],
        "job_s": job_raw,
        "probe_s": probe_all,
        "probe_ms": statistics.median(p for ps in probe_all for p in ps) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_failures": tally.known,
        "unexpected_failures": tally.unexpected,
    }
    if tracer is not None:
        names = layer[0].keys()
        result["layers"] = {k: statistics.median(m[k] for m in layer) for k in names}
        result["layers"]["polyring.parse_poly.ms"] = parse_ms
        result["traced_batch_ref"] = traced_ref
        path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.txt.gz")
        tracer.write(path)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
