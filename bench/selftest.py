"""Self-test of the benchmark's checkers.

    PYTHONPATH=src python3 bench/selftest.py

Runs one job of every kind once, confirms that its checks pass on lctlab's
real output (the recorded tougeron fault aside), then feeds each checker
deliberately wrong outputs -- a perturbed map, a singular linear part, a
witness that no longer re-expands, mu off by one, a wrong lct, an edited or
missing CLI report, a shifted histogram, a jet count off by one -- and
confirms that every one is flagged.  On the job with the recorded tougeron
fault it confirms that only the check the fault explains counts as known,
and that a wrong witness there counts as unexpected.  Exits 1 if any wrong
output passes.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace as NS

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lctlab  # noqa: E402
import lctlab.cli  # noqa: E402,F401

import child  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _series(poly):
    return NS(poly=poly)


def _bump(poly, degree=5):
    """poly plus x_1^degree."""
    n = poly.nvars
    return poly + lctlab.Polynomial.monomial(n, (degree,) + (0,) * (n - 1))


def absorb_mutants(out):
    wit, psi = out
    images = [im.poly for im in psi.images]
    n = len(images)
    x2 = lctlab.Polynomial.variable(n, 2)
    singular = [x2 + im - im.graded_part(1) if i == 0 else im for i, im in enumerate(images)]
    return {
        "perturbed map": (wit, NS(images=[_series(_bump(images[0]))] + [_series(p) for p in images[1:]])),
        "singular linear part": (wit, NS(images=[_series(p) for p in singular])),
        "witness that does not re-expand": (
            NS(gens=wit.gens, coefficients=[_series(_bump(wit.coefficients[0].poly, 1))] + wit.coefficients[1:]),
            psi),
    }


def member_mutants(out):
    if isinstance(out, lctlab.NotMember):
        return {"a witness for a non-member": NS(gens=NS(gens=[]), coefficients=[])}
    return {"witness that does not re-expand": NS(
        gens=out.gens, coefficients=[_series(_bump(out.coefficients[0].poly, 1))] + out.coefficients[1:])}


def milnor_mutants(out):
    if isinstance(out, int):
        return {"mu off by one": out + 1}
    return {"an integer for a non-isolated germ": 7}


def cli_mutants(path):
    """(exit code, report to leave in the file or None) for each wrong
    outcome of a CLI run."""
    with open(path) as fh:
        report = json.load(fh)
    edited = json.loads(json.dumps(report))
    rows = edited["results"]
    key = next(k for k in ("lct_fJ2", "lct", "mu") if k in rows[0])
    value = rows[0][key]
    rows[0][key] = value + 1 if isinstance(value, int) else str(Fraction(value) + Fraction(1, 7))
    return {"exit code 1": (1, report), "edited report value": (0, edited),
            "no report written": (0, None)}


def hist_mutants(h):
    shifted = np.roll(h.counts, 1)
    return {"shifted histogram": NS(counts=shifted, total=h.total),
            "lost point": NS(counts=h.counts - np.eye(1, len(h.counts), 0, dtype=h.counts.dtype)[0],
                             total=h.total - 1)}


MUTANTS = {
    "monomial": absorb_mutants,
    "selftest": absorb_mutants,
    "membership": member_mutants,
    "milnor": milnor_mutants,
    "newton_lct": lambda out: {"wrong lct": [out[0] + Fraction(1, 7)] + out[1:]},
    "check_corD": lambda rep: {"wrong closure lct": NS(**{**vars(rep), "lct_closure": Fraction(1, 7)})
                               if not rep.skipped else NS(**{**vars(rep), "skipped": False})},
    "histogram": lambda out: hist_mutants(out) if hasattr(out, "counts") else (
        {"sum off by 1e-6": out + 1e-6} if isinstance(out, complex) else {"N_k off by one": out + 1}),
    "decay": lambda prof: {"one level off": NS(values={**prof.values, 1: prof.values[1] + 1e-6})},
    "igusa": lambda rep: {"identity reported as failing": NS(all_hold=False)},
    "jets": lambda count: {"count off by one": count + 1},
}


def known_fault_problems(job):
    """The recorded fault must explain exactly one failing check of its job;
    a wrong witness on the same job must count as unexpected."""
    out = job.run()
    problems = []
    tally = child.Tally()
    tally.record(job, job.check(out))
    if list(tally.known) != [f"{job.name}: {job.known_fault[1]}"] or tally.unexpected:
        problems.append(f"{job.name}: real output gave known {tally.known}, unexpected {tally.unexpected}")
    tally = child.Tally()
    tally.record(job, job.check(absorb_mutants(out)["witness that does not re-expand"]))
    flagged = bool(tally.unexpected)
    print(f"{'flagged' if flagged else 'MISSED':8} {'absorb':<10} {job.name:<44} "
          "wrong witness beside the recorded fault")
    if not flagged:
        problems.append(f"{job.name}: wrong witness counted as the recorded fault")
    return problems


def main():
    os.makedirs(OUT, exist_ok=True)
    missed, tried = [], 0
    for name, (make_inputs, setup, build) in workloads.WORKLOADS.items():
        jobs = build(lctlab, setup(lctlab, make_inputs(1)), OUT)
        seen = set()
        for job in jobs:
            key = job.name if job.kind == "cli" else re.match(r"[A-Za-z_]+", job.name).group()
            if job.kind == "diagonal3":
                if "diagonal3" not in seen:
                    seen.add("diagonal3")
                    tried += 1
                    missed.extend(known_fault_problems(job))
                continue
            if key in seen:
                continue
            seen.add(key)
            out = job.run()
            if job.kind == "cli":
                # the check removes the report it reads, so read it first
                path = os.path.join(OUT, f"cli-report-{os.getpid()}.json")
                cli_cases = cli_mutants(path)
            bad = [label for label, ok in job.check(out) if not ok]
            if bad:
                missed.append(f"{name}/{job.name}: real output flagged: {bad}")
            mutants = ({label: code for label, (code, _) in cli_cases.items()}
                       if job.kind == "cli" else MUTANTS[job.kind](out))
            for label, wrong in mutants.items():
                tried += 1
                if job.kind == "cli" and cli_cases[label][1] is not None:
                    with open(path, "w") as fh:
                        json.dump(cli_cases[label][1], fh)
                try:
                    flagged = not all(ok for _, ok in job.check(wrong))
                except Exception:  # a checker that raises on a wrong output flags it too
                    flagged = True
                status = "flagged" if flagged else "MISSED"
                print(f"{status:8} {name:<10} {job.name:<44} {label}")
                if not flagged:
                    missed.append(f"{name}/{job.name}: {label}")
    print(f"{tried} wrong outputs, {len(missed)} problems")
    for line in missed:
        print("  " + line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
