"""Traced run: wrappers around lctlab's public functions, installed from the
outside, recording one span per call.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans (calls nest, so the
children's intervals are disjoint).

Each traced name is patched on the module that defines it and on every
lctlab module (and the package) that imported the same object, since that is
the name each caller looks up.  Methods are patched on their class.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

# span name -> (defining module, attribute, class attribute or None)
TRACED = {
    "polyring.mul_truncated": ("polyring", "Polynomial", "mul_truncated"),
    "polyring.substitute": ("polyring", "substitute", None),
    "polyring.substitute_shifted": ("polyring", "substitute_shifted", None),
    "polyring.divided_power": ("polyring", "divided_power", None),
    "polyring.parse_poly": ("polyring", "parse_poly", None),
    "equiv.tougeron": ("equiv", "tougeron", None),
    "equiv.then": ("equiv", "CoordinateMap", "then"),
    "equiv.verify_map": ("equiv", "verify_map", None),
    "linalg.solve_dense": ("linalg", "solve_dense", None),
    "linalg.add_row": ("linalg", "SparseEliminator", "add_row"),
    "linalg.det_dense": ("linalg", "det_dense", None),
    "jacobian.membership_truncated": ("jacobian", "membership_truncated", None),
    "jacobian.milnor_number": ("jacobian", "milnor_number", None),
    "lct.fourier_motzkin_minimize": ("lct", "fourier_motzkin_minimize", None),
    "lct.newton_lct": ("lct", "newton_lct", None),
    "lct.check_corD": ("lct", "check_corD", None),
    "lct.check_theorems": ("lct", "check_theorems", None),
    "cli.main": ("cli", "main", None),
    "cli.emit_report": ("cli", "emit_report", None),
    "expsum.residue_histogram": ("expsum", "residue_histogram", None),
    "expsum.exp_sum": ("expsum", "exp_sum", None),
    "expsum.exp_sum_restricted": ("expsum", "exp_sum_restricted", None),
    "expsum.count_solutions": ("expsum", "count_solutions", None),
    "expsum.igusa_identity_check": ("expsum", "igusa_identity_check", None),
    "expsum.decay_profile": ("expsum", "decay_profile", None),
    "arcs.count_contact_jets": ("arcs", "count_contact_jets", None),
}

HISTOGRAM_SPANS = ("expsum.residue_histogram", "expsum.exp_sum",
                   "expsum.exp_sum_restricted", "expsum.count_solutions")


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = {}
        self.patches = []  # (owner, attribute, original, wrapper)

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, counter):
        kid = self.name_id[name]
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.kind)
            self.kind.append(kid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, L):
        """Wrap every traced name and switch the wrappers on."""
        modules = [L] + [getattr(L, m) for m in
                         ("polyring", "jacobian", "linalg", "equiv", "lct", "expsum", "arcs", "cli")]
        for name, (mod, attr, method) in TRACED.items():
            owner = getattr(L, mod)
            counter = COUNTERS.get(name)
            if method is not None:
                cls = getattr(owner, attr)
                orig = getattr(cls, method)
                self.patches.append((cls, method, orig, self.wrap(name, orig, counter)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, counter)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self.patches.append((m, attr, orig, wrapped))
        self.enable(True)

    def enable(self, on):
        for owner, attr, orig, wrapped in self.patches:
            setattr(owner, attr, wrapped if on else orig)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "columns": "name start end parent"}) + "\n")
            for k, s, e, p in zip(self.kind, self.start, self.end, self.parent):
                fh.write(f"{k} {s:.7f} {e:.7f} {p}\n")

    def layer_totals(self, lo, hi):
        """Per span name over spans [lo, hi): calls, inclusive and self seconds."""
        n = len(self.names)
        calls, incl, child = [0] * n, [0.0] * n, {}
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            k = self.kind[i]
            calls[k] += 1
            incl[k] += d
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + d
        self_s = [0.0] * n
        for i in range(lo, hi):
            self_s[self.kind[i]] += self.end[i] - self.start[i] - child.get(i, 0.0)
        return {
            name: {"calls": calls[k], "ms": incl[k] * 1e3, "self_ms": self_s[k] * 1e3}
            for k, name in enumerate(self.names)
        }


def _count_solve(tr, args, out):
    rows = args[0]
    tr.count("linalg.solve_dense.cells", len(rows) * (len(rows[0]) if rows else 0))


def _count_add_row(tr, args, out):
    tr.count("linalg.add_row.raised", int(bool(out)))


def _count_newton(tr, args, out):
    tr.count("lct.newton_lct.generators", len(args[0].gens))


def _count_points(tr, args, out):
    f, p, m = args[:3]
    tr.count("expsum.points", p ** (m * f.nvars))


def _count_jets(tr, args, out):
    gens, p, m = args[:3]
    tr.count("arcs.count_contact_jets.volume", p ** ((m + 1) * gens.nvars))
    tr.count("arcs.count_contact_jets.count", out)


# residue_histogram and exp_sum_restricted are the two entry points that
# enumerate; exp_sum and count_solutions go through residue_histogram
COUNTERS = {
    "linalg.solve_dense": _count_solve,
    "linalg.add_row": _count_add_row,
    "lct.newton_lct": _count_newton,
    "expsum.residue_histogram": _count_points,
    "expsum.exp_sum_restricted": _count_points,
    "arcs.count_contact_jets": _count_jets,
}


def pass_metrics(totals, counts):
    """The per-layer metrics of one traced pass."""
    t = totals
    offered = t["linalg.add_row"]["calls"]
    volume = counts.get("arcs.count_contact_jets.volume", 0)
    return {
        "polyring.mul_truncated.calls": t["polyring.mul_truncated"]["calls"],
        "polyring.mul_truncated.self_ms": t["polyring.mul_truncated"]["self_ms"],
        "polyring.substitute_shifted.self_ms": t["polyring.substitute_shifted"]["self_ms"],
        "polyring.divided_power.self_ms": t["polyring.divided_power"]["self_ms"],
        "polyring.substitute.self_ms": t["polyring.substitute"]["self_ms"],
        "equiv.tougeron.self_ms": t["equiv.tougeron"]["self_ms"],
        "equiv.then.self_ms": t["equiv.then"]["self_ms"],
        "equiv.verify_map.ms": t["equiv.verify_map"]["ms"],
        "linalg.solve_dense.self_ms": t["linalg.solve_dense"]["self_ms"],
        "linalg.solve_dense.cells": counts.get("linalg.solve_dense.cells", 0),
        "linalg.add_row.self_ms": t["linalg.add_row"]["self_ms"],
        "linalg.add_row.calls": offered,
        "linalg.add_row.rank_ratio": counts.get("linalg.add_row.raised", 0) / offered if offered else 0.0,
        "linalg.det_dense.calls": t["linalg.det_dense"]["calls"],
        "jacobian.membership_truncated.self_ms": t["jacobian.membership_truncated"]["self_ms"],
        "jacobian.membership_truncated.calls": t["jacobian.membership_truncated"]["calls"],
        "jacobian.milnor_number.self_ms": t["jacobian.milnor_number"]["self_ms"],
        "lct.fourier_motzkin_minimize.self_ms": t["lct.fourier_motzkin_minimize"]["self_ms"],
        "lct.newton_lct.calls": t["lct.newton_lct"]["calls"],
        "lct.newton_lct.generators": counts.get("lct.newton_lct.generators", 0),
        "lct.check_corD.ms": t["lct.check_corD"]["ms"],
        "lct.check_theorems.ms": t["lct.check_theorems"]["ms"],
        "cli.main.self_ms": t["cli.main"]["self_ms"],
        "cli.emit_report.ms": t["cli.emit_report"]["ms"],
        "expsum.histogram.self_ms": sum(t[n]["self_ms"] for n in HISTOGRAM_SPANS),
        "expsum.points": counts.get("expsum.points", 0),
        "expsum.igusa_identity_check.self_ms": t["expsum.igusa_identity_check"]["self_ms"],
        "expsum.decay_profile.self_ms": t["expsum.decay_profile"]["self_ms"],
        "arcs.count_contact_jets.self_ms": t["arcs.count_contact_jets"]["self_ms"],
        "arcs.count_contact_jets.volume": volume,
        "arcs.count_contact_jets.density":
            counts.get("arcs.count_contact_jets.count", 0) / volume if volume else 0.0,
    }


# the workload on which each per-layer metric is read (the one it should
# move); polyring.parse_poly.ms and the bench.* metrics come from the
# requested workload
HOME = {
    "polyring.": "absorb", "equiv.": "absorb", "linalg.solve_dense": "ideals",
    "linalg.add_row": "ideals", "linalg.det_dense": "absorb", "jacobian.": "ideals",
    "lct.": "thresholds", "cli.": "thresholds", "expsum.": "padic", "arcs.": "padic",
}


def home_of(metric):
    return next(w for prefix, w in HOME.items() if metric.startswith(prefix))
