"""Command-line frontend: dispatch, reports, golden tables.

Every subcommand assembles a machine-parseable report (schema ``lct-lab/1``)
and emits it as JSON (default) or TSV.  Exit codes: 0 success, 1 a checked
assertion failed, 2 usage error, 3 enumeration budget exceeded.  Exact
values print as reduced fractions; floats print with 12 significant digits.
Result items carry a provenance tag: "reference" for known closed-form
values, "derived" for values obtained through an independent oracle in this
package, "direct" for immediate computations.

The numpy-backed modules ``arcs`` and ``expsum`` are imported inside the
handlers that count jets or residues, so every other command starts without
numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .budget import BudgetExceededError, resolve_budget
from .equiv import RankDropError, morsify, tougeron
from .jacobian import (
    IdealGens,
    MembershipWitness,
    NotMember,
    check_milnor_inequality,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
    milnor_number,
)
from .lct import (
    check_corD,
    check_theorems,
    lct_det_fJ2,
    lct_diag_fJ2,
    newton_lct,
    yano_roots,
)
from .polyring import (
    ParseError,
    Polynomial,
    TruncatedSeries,
    infer_nvars,
    parse_poly,
    poly_to_string,
)

SCHEMA = "lct-lab/1"
DEFAULT_SEED = 20240801


class CheckFailure(Exception):
    """A checked assertion or acceptance row failed (exit code 1)."""


# builtin corpus of monomial ideals with threshold < 1 for the closure check
COR_D_CORPUS = [
    ("x^3,y^3", 2),
    ("x^2*y^2", 2),
    ("x^4", 1),
    ("x^3*y", 2),
    ("x^5,y^2", 2),
    ("x^4,y^4", 2),
    ("x^6,x^2*y^2,y^6", 2),
    ("x^2*y^3", 2),
    ("x^4,x*y^2,y^4", 2),
    ("x1^4,x2^4,x3^4", 3),
]


def parse_ideal(text: str, nvars: int) -> IdealGens:
    gens = [parse_poly(part, nvars) for part in text.split(",") if part.strip()]
    if not gens:
        raise ParseError("empty ideal", 0)
    return IdealGens(nvars, gens)


# the flags each kind of ``lct`` and ``check`` reads; the others are refused
KIND_FLAGS = {
    "lct": {"diagonal": ("n", "d"), "det": ("n",), "monomial": ("ideal", "nvars")},
    "check": {"thmB": ("grid",), "thmA": ("grid",), "corD": ("ideal", "nvars"), "milnor": ()},
}


def _check_args(args):
    """Usage errors: ``--m``, ``--e``, ``--cases``, ``--order-cap`` or
    ``--nvars`` below 1, ``--grid`` below 2, ``--order`` below 2 for
    ``tougeron`` (mod m^1 no map is an automorphism) or below 3 for
    ``morsify`` (mod m^2 the quadratic part is 0), or a flag its kind of
    ``lct`` or ``check`` does not read.  The library refuses a ``--k`` or
    ``--mmax`` below 1, and a ``--p`` that is not prime after its budget
    check."""
    least_values = {
        "m": 1, "e": 1, "cases": 1, "order_cap": 1, "grid": 2, "nvars": 1,
        "order": {"tougeron": 2, "morsify": 3}.get(args.command),
    }
    for name, least in least_values.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
    kinds = KIND_FLAGS.get(args.command)
    if kinds is not None:
        kind = args.kind if args.command == "lct" else args.what
        for name in dict.fromkeys(flag for flags in kinds.values() for flag in flags):
            if getattr(args, name) is not None and name not in kinds[kind]:
                raise ValueError(f"--{name} does not apply to {args.command} {kind}")


def _fmt(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return value


def emit_report(command: str, config: dict, results, fmt: str, out=None):
    stream = out or sys.stdout
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": _fmt(config),
        "results": _fmt(results),
    }
    if fmt == "json":
        stream.write(json.dumps(report, indent=2) + "\n")
        return
    # tsv: comment header then one row per result
    stream.write(f"# schema: {SCHEMA}\n# version: {__version__}\n")
    stream.write(f"# command: {command}\n")
    for k, v in sorted(config.items()):
        stream.write(f"# {k}: {v}\n")
    rows = results if isinstance(results, list) else [results]
    if not rows:
        return
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    stream.write("\t".join(keys) + "\n")
    for row in rows:
        flat = _fmt(row)
        stream.write(
            "\t".join(json.dumps(flat.get(k)) if isinstance(flat.get(k), (dict, list))
                      else str(flat.get(k, "")) for k in keys)
            + "\n"
        )


# ----------------------------------------------------------------------
# subcommand handlers; each returns its result rows and raises on failure


def _cmd_lct(args):
    if args.kind == "diagonal":
        if args.n is None or args.d is None or args.n < 2 or args.d < 2:
            raise ValueError("lct diagonal needs --n >= 2 and --d >= 2")
        cert = lct_diag_fJ2(args.n, args.d)
        print(cert.value)
        return [
            {
                "n": args.n,
                "d": args.d,
                "lct_fJ2": cert.value,
                "witness": {"a": cert.witness.a, "b": cert.witness.b},
                "provenance": "reference",
            }
        ]
    if args.kind == "det":
        if args.n is None or args.n < 2:
            raise ValueError("lct det needs --n >= 2")
        cert = lct_det_fJ2(args.n, budget=args.budget)
        print(cert.value)
        return [
            {
                "n": args.n,
                "lct_fJ2": cert.value,
                "witness": list(cert.witness.lam),
                "alpha": Fraction(2),
                "provenance": "reference",
            }
        ]
    if not args.ideal:
        raise ValueError("lct monomial needs --ideal")
    nvars = args.nvars or infer_nvars(args.ideal)
    a = parse_ideal(args.ideal, nvars)
    value = newton_lct(a, budget=args.budget)
    print(value)
    return [
        {"ideal": str(a), "lct": value, "provenance": "derived"}
    ]


def _cmd_morsify(args):
    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    res = morsify(f, args.order)  # morsify verifies its map by substitution
    return [
        {
            "poly": poly_to_string(f),
            "order": args.order,
            "diag_coeffs": [Fraction(c) for c in res.diag_coeffs],
            "residual": poly_to_string(res.residual.poly),
            "map": [poly_to_string(im.poly) for im in res.map.images],
            "verified": True,
            "provenance": "derived",
        }
    ]


def _cmd_tougeron(args):
    nvars = args.nvars or max(infer_nvars(args.poly), infer_nvars(args.g))
    f = parse_poly(args.poly, nvars)
    g = parse_poly(args.g, nvars)
    jf2 = ideal_power(jacobian_ideal(f), 2)
    wit = membership_truncated(g, jf2, args.order)
    if isinstance(wit, NotMember):
        raise CheckFailure(
            f"g is not in the Jacobian-square ideal modulo m^{args.order}"
        )
    psi = tougeron(f, wit, args.order)  # verified by substitution against f + g
    return [
        {
            "poly": poly_to_string(f),
            "g": poly_to_string(g),
            "order": args.order,
            "map": [poly_to_string(im.poly) for im in psi.images],
            "verified": True,
            "provenance": "derived",
        }
    ]


def _cmd_milnor(args):
    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    mu = milnor_number(f, order_cap=args.order_cap)
    row = {"poly": poly_to_string(f), "provenance": "derived"}
    if isinstance(mu, int):
        row["mu"] = mu
        print(mu)
    else:
        row["mu"] = repr(mu)
        print(repr(mu))
    return [row]


def _cmd_jets(args):
    from .arcs import count_contact_jets

    nvars = args.nvars or infer_nvars(args.ideal)
    a = parse_ideal(args.ideal, nvars)
    count = count_contact_jets(a, args.p, args.m, args.e, budget=args.budget)
    density = count / args.p ** ((args.m + 1) * nvars)
    return [
        {
            "p": args.p,
            "m": args.m,
            "e": args.e,
            "count": count,
            "density": density,
            "provenance": "direct",
        }
    ]


def _cmd_expsum(args):
    from .expsum import decay_exponent, exp_sum, exp_sum_restricted

    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    if args.restrict:
        z = parse_ideal(args.restrict, nvars)
        e = exp_sum_restricted(f, args.p, args.m, z, budget=args.budget)
    else:
        e = exp_sum(f, args.p, args.m, budget=args.budget)
    return [
        {
            "p": args.p,
            "m": args.m,
            "re": e.real,
            "im": e.imag,
            "abs": abs(e),
            "sigma_m": decay_exponent(e, args.p, args.m),
            "provenance": "direct",
        }
    ]


def _cmd_decay(args):
    from .expsum import decay_profile

    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    try:
        ref = Fraction(args.lct) if args.lct else None
    except ZeroDivisionError:
        raise ValueError(f"--lct has a zero denominator: {args.lct!r}") from None
    prof = decay_profile(
        f, args.p, args.mmax, lct_ref=ref, budget=args.budget, slack=args.slack
    )
    rows = prof.as_rows()
    for row in rows:
        row["flagged"] = row["m"] in prof.flagged
        row["provenance"] = "derived"
    return rows


def _cmd_igusa(args):
    from .expsum import igusa_identity_check

    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    z = parse_ideal(args.z, nvars) if args.z else None
    rep = igusa_identity_check(
        f, args.p, args.m, z, budget=args.budget, min_p=args.min_p
    )
    row = {
        "p": rep.p,
        "m": rep.m,
        "checks": {"efz1": rep.efz1, "efzj": rep.efzj, "orth": rep.orth},
        "delta_efz1": rep.delta_efz1,
        "delta_efzj": rep.delta_efzj,
        "warnings": rep.warnings,
        "provenance": "derived",
    }
    if not rep.all_hold and not rep.warnings:
        raise CheckFailure(f"identity check failed: {row['checks']}")
    return [row]


def _cmd_nk(args):
    from .expsum import count_solutions

    nvars = args.nvars or infer_nvars(args.poly)
    f = parse_poly(args.poly, nvars)
    nk = count_solutions(f, args.p, args.k, budget=args.budget)
    return [
        {"p": args.p, "k": args.k, "nk": nk, "provenance": "direct"}
    ]


def _cmd_check(args):
    if args.what in ("thmB", "thmA"):
        # thmB reports the inequality between the minimal exponent and the
        # threshold of (f, Jf^2); thmA reports the rational-singularity
        # regime (threshold above 1 iff d < n, else equal to lct(f))
        if args.what == "thmB":
            keys = ("alpha", "lct_fJ2", "ineq", "equality", "strict")
        else:
            keys = ("alpha", "lct_f", "lct_fJ2", "above_one")
        grid = 8 if args.grid is None else args.grid
        rows = []
        ok = True

        def add(rep):
            row = rep.as_row()
            picked = {k: row[k] for k in ("family", "n", "d") if k in row}
            picked.update({k: row[k] for k in keys})
            picked["consistent"] = row["consistent"]
            picked["provenance"] = "reference"
            rows.append(picked)
            return rep.regime_consistent

        for n in range(2, grid + 1):
            for d in range(2, grid + 1):
                ok = add(check_theorems("diagonal", n, d)) and ok
        for n in range(2, min(grid, 6) + 1):
            ok = add(check_theorems("determinantal", n, budget=args.budget)) and ok
        if not ok:
            raise CheckFailure("a family regime check failed")
        return rows
    if args.what == "corD":
        entries = (
            [(args.ideal, args.nvars or infer_nvars(args.ideal))]
            if args.ideal
            else COR_D_CORPUS
        )
        rows = []
        ok = True
        for text, nvars in entries:
            rep = check_corD(parse_ideal(text, nvars), budget=args.budget)
            rows.append(
                {
                    "ideal": rep.ideal,
                    "lct": rep.lct_a,
                    "lct_closure": rep.lct_closure,
                    "equal": rep.equal,
                    "skipped": rep.skipped,
                    "note": rep.note,
                    "provenance": "derived",
                }
            )
            if not rep.skipped:
                ok = ok and bool(rep.equal)
        if not ok:
            raise CheckFailure("derived-ideal closure check failed")
        return rows
    rows = []
    ok = True
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            rep = check_milnor_inequality(_diagonal_form(n, d), Fraction(n, d))
            expected = (d - 1) ** n
            good = rep.mu == expected and rep.holds and rep.equality == (d == 2)
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "mu": rep.mu,
                    "expected": expected,
                    "bound_value": rep.value,
                    "bound": rep.bound,
                    "holds": rep.holds,
                    "equality": rep.equality,
                    "ok": good,
                    "provenance": "reference",
                }
            )
            ok = ok and good
    if not ok:
        raise CheckFailure("Milnor grid check failed")
    return rows


def _diagonal_form(n: int, d: int) -> Polynomial:
    """x_1^d + ... + x_n^d."""
    return sum((Polynomial.variable(n, i) ** d for i in range(1, n + 1)), Polynomial.zero(n))


def _cmd_selftest(args):
    """Seeded randomized property battery (Taylor identity + absorption)."""
    rng = random.Random(args.seed)
    rows = []
    for case in range(args.cases):
        n = rng.choice((2, 2, 3))
        terms = {}
        for _ in range(4):
            mono = [0] * n
            for _ in range(rng.randint(3, 4)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.choice([-2, -1, 1, 2])
        mono = [0] * n
        mono[0] = 3
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + 1
        f = Polynomial(n, terms)
        if f.multiplicity() != 3:
            rows.append({"case": case, "skipped": True})
            continue
        jf2 = ideal_power(jacobian_ideal(f), 2)
        coeffs = []
        g = Polynomial.zero(n)
        for gen in jf2.gens:
            c = Polynomial(n, {tuple(rng.randint(0, 1) for _ in range(n)): rng.choice([-1, 1])}) \
                if rng.random() < 0.6 else Polynomial.zero(n)
            coeffs.append(TruncatedSeries(c, 10))
            g = g + c * gen
        wit = MembershipWitness(g.truncate(10), jf2, coeffs, 10)
        tougeron(f, wit, 10)  # raises unless the map sends f to f + g
        rows.append({"case": case, "nvars": n, "poly": poly_to_string(f), "verified": True})
    return rows


# ----------------------------------------------------------------------
# golden tables


def emit_golden_tables(outdir: str, seed: int = DEFAULT_SEED):
    """Regenerate the acceptance tables as TSV files.

    Exact-arithmetic tables are byte-identical across runs and platforms;
    the exponential-sum table contains floats printed with 12 significant
    digits and a tolerance note.
    """
    from .expsum import decay_profile

    os.makedirs(outdir, exist_ok=True)
    written = []

    def table(name, header_note, lines):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(f"# schema: {SCHEMA}\n# seed: {seed}\n")
            if header_note:
                fh.write(f"# {header_note}\n")
            for line in lines:
                fh.write(line + "\n")
        written.append(path)

    lines = []
    for n in range(2, 9):
        for d in range(2, 9):
            rep = check_theorems("diagonal", n, d)
            lines.append(
                f"n={n}\td={d}\tlct_fJ2={rep.lct_fJ2}\talpha={rep.alpha_tilde}"
                f"\tstrict={str(rep.strict).lower()}"
                f"\tequality={str(rep.equality).lower()}"
                f"\tabove_one={str(rep.lct_fJ2_above_one).lower()}"
            )
    table("diagonal_lct_grid.tsv", "thresholds of (f, Jf^2) for diagonal forms", lines)

    lines = []
    for n in range(2, 7):
        cert = lct_det_fJ2(n)
        lines.append(
            f"n={n}\tlct_fJ2={cert.value}\talpha=2\t"
            f"witness={','.join(str(v) for v in cert.witness.lam)}"
        )
    table("determinantal.tsv", "thresholds for generic determinants", lines)

    lines = []
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            t = yano_roots(n, d)
            roots = ",".join(f"{r}:{c}" for r, c in t.sorted_roots())
            lines.append(f"n={n}\td={d}\troots={roots}\tmin={t.min_exponent}")
    table("yano_roots.tsv", "reduced Bernstein-Sato roots, diagonal forms", lines)

    lines = []
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            lines.append(f"n={n}\td={d}\tmu={milnor_number(_diagonal_form(n, d))}")
    table("milnor_grid.tsv", "Milnor numbers of diagonal forms", lines)

    lines = []
    for text, nvars, p, mmax, ref in (
        ("x^2", 1, 11, 3, Fraction(1, 2)),
        ("x^3+y^3", 2, 7, 3, Fraction(2, 3)),
    ):
        prof = decay_profile(parse_poly(text, nvars), p, mmax, lct_ref=ref)
        for m in sorted(prof.values):
            sig = prof.sigma.get(m)
            sig_s = "" if sig is None else ("inf" if math.isinf(sig) else format(sig, ".12g"))
            lines.append(
                f"poly={text}\tp={p}\tm={m}\tabs={format(prof.abs_values[m], '.12g')}"
                f"\tsigma_m={sig_s}\tlct_ref={ref}"
            )
    table(
        "expsum_profiles.tsv",
        "floating values, 12 significant digits, tolerance 1e-9",
        lines,
    )
    return written


def _cmd_golden(args):
    try:
        written = emit_golden_tables(args.out, seed=args.seed)
    except OSError as exc:
        raise ValueError(f"cannot write the golden tables: {exc}") from None
    return [{"written": written, "provenance": "direct"}]


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lctlab",
        description=(
            "exact singularity invariants: thresholds, Milnor numbers, formal "
            "equivalence, jet counts, and p-adic exponential sums"
        ),
    )
    ap.add_argument("--format", choices=("json", "tsv"), default="json")
    ap.add_argument("--budget", type=int, default=None, help="max enumeration size")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--output", default=None, help="report file (default: stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lct", help="log canonical thresholds")
    p.add_argument("kind", choices=("diagonal", "det", "monomial"))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--ideal")
    p.add_argument("--nvars", type=int)
    p.set_defaults(func=_cmd_lct)

    p = sub.add_parser("morsify", help="split off the quadratic part")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--order", type=int, default=16)
    p.set_defaults(func=_cmd_morsify)

    p = sub.add_parser("tougeron", help="absorb a Jacobian-square perturbation")
    p.add_argument("--poly", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--order", type=int, default=16)
    p.set_defaults(func=_cmd_tougeron)

    p = sub.add_parser("milnor", help="Milnor number at the origin")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--order-cap", type=int, default=64)
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("jets", help="jet counting")
    p.add_argument("action", choices=("count",))
    p.add_argument("--ideal", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_jets)

    p = sub.add_parser("expsum", help="normalized exponential sum E(p^m)")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--restrict", help="ideal cutting the mod-p residue tube")
    p.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("decay", help="decay exponents over levels")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--lct", help="reference threshold a/b")
    p.add_argument("--slack", type=float, default=0.15)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("igusa-check", help="restricted-sum identities")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", help="restriction ideal (defaults to none)")
    p.add_argument("--min-p", type=int, default=None, dest="min_p")
    p.set_defaults(func=_cmd_igusa)

    p = sub.add_parser("nk", help="solution counts modulo p^k")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_nk)

    p = sub.add_parser("check", help="consistency suites")
    p.add_argument("what", choices=("thmB", "thmA", "corD", "milnor"))
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--ideal")
    p.add_argument("--nvars", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("golden", help="regenerate golden tables")
    p.add_argument("--out", default="golden")
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser("selftest", help="seeded randomized property battery")
    p.add_argument("--cases", type=int, default=5)
    # SUPPRESS: without it this default would overwrite a top-level --seed
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_selftest)

    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call of this process uses, built on the
    first call: parsing leaves it unchanged, and each parse fills a new
    namespace."""
    return build_parser()


def main(argv=None) -> int:
    code = 0
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``lctlab ... | head``).  Every write
        # to stdout follows a successful run, so the exit code stays the
        # command's own; stdout goes to devnull so the flush at exit cannot
        # fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and v is not None and not callable(v)
    }
    try:
        # opened before any work, so an unwritable path fails at once
        report = open(args.output, "w") if args.output else contextlib.nullcontext()
    except OSError as exc:
        print(f"usage error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    code = 0
    with report as out:  # None: stdout
        try:
            config.setdefault("budget", resolve_budget(args.budget))
            if config["budget"] <= 0:
                raise ValueError("budget must be positive")
            _check_args(args)
            results = args.func(args)
        except BudgetExceededError as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            code = 3
        except (CheckFailure, RankDropError, AssertionError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            code = 1
        except (ParseError, ValueError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            code = 2
        else:
            emit_report(args.command, config, results, args.format, out=out)
    if code and args.output and os.path.isfile(args.output):
        os.remove(args.output)  # a failed command leaves no report file
    return code


if __name__ == "__main__":
    sys.exit(main())
