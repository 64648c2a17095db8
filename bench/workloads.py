"""The four workloads: seeded inputs, the timed jobs, and their checks.

``make_inputs(seed)`` is plain Python and never touches lctlab: lctlab only
receives the generated text.  ``setup(L, inputs)`` parses that text with
lctlab's public parser (this is the timed set-up).  ``jobs(L, parsed,
out_dir)`` returns the job list of one pass; every job's ``run`` calls lctlab's public
functions only and every ``check`` compares the output with an independent
computation from ``oracle``.  A job has a fixed number of checks, so every
pass attempts the same operations whatever the seed.

lctlab functions are looked up on their modules at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import oracle

NAMES = ("x", "y", "z", "w")
FOUND_TOUGERON = "FOUND tougeron-order"  # see CHANGES.md, first FOUND line


class Job:
    """One timed call chain plus its independent checks.

    ``check(output)`` returns a list of ``(label, ok)`` of length ``nchecks``.
    ``known_fault`` is ``(fault, label)``: the recorded fault that makes the
    check ``label`` fail on every run.  That failure is counted but does not
    make the run incorrect; a failure of any other check of the job does.
    """

    __slots__ = ("name", "kind", "run", "check", "nchecks", "known_fault")

    def __init__(self, name, kind, run, check, nchecks, known_fault=None):
        self.name = name
        self.kind = kind
        self.run = run
        self.check = check
        self.nchecks = nchecks
        self.known_fault = known_fault


def _rng(seed, tag):
    return random.Random(f"{tag}:{seed}")


def _sign(rng):
    return rng.choice((-1, 1))


# Random germs and cofactors take their supports from a fixed stream (one
# per slot of the job list) and their coefficients from the seed.  The cost
# of elimination and absorption depends mostly on the supports: with seeded
# supports the time of one pass varied by a factor of two between seeds.


def _germ_support(shape, n):
    """Support of a multiplicity-3 germ: x^3 plus four monomials of degree
    3-4, every variable present and at least one partial with two or more
    terms (so the Jacobian ideal is not monomial)."""
    rng = random.Random(f"germ:{shape}:{n}")
    lead = (3,) + (0,) * (n - 1)
    while True:
        support = {lead}
        while len(support) < 5:
            mono = [0] * n
            for _ in range(rng.randint(3, 4)):
                mono[rng.randrange(n)] += 1
            support.add(tuple(mono))
        f = dict.fromkeys(support, 1)
        parts = [oracle.derivative(f, i) for i in range(n)]
        if all(parts) and any(len(p) > 1 for p in parts):
            return sorted(support)


def _random_germ(rng, shape, n):
    return {m: _sign(rng) for m in _germ_support(shape, n)}


def _random_cofactors(rng, shape, n, count):
    """Cofactors for the generators of J_f^2, as in ``lctlab selftest``:
    each is zero or a squarefree monomial with a seeded sign."""
    pick = random.Random(f"cofactors:{shape}:{n}")
    out = []
    for _ in range(count):
        if pick.random() < 0.6:
            mono = tuple(pick.randint(0, 1) for _ in range(n))
            out.append({mono: rng.choice((-1, 1))})
        else:
            out.append({})
    return out


def _combine(cofactors, gens):
    total = {}
    for c, g in zip(cofactors, gens):
        total = oracle.add(total, oracle.mul(c, g))
    return total


# ----------------------------------------------------------------------
# absorb: parse -> jacobian_ideal -> ideal_power -> membership_truncated
#         -> tougeron -> verify_map


def absorb_inputs(seed):
    rng = _rng(seed, "absorb")
    cases = []
    # germs with a monomial Jacobian ideal, a seeded g in J_f^2 of
    # multiplicity 4 (the x_1^4 cofactor is a nonzero constant)
    for text, n, order in (("x^3+y^3", 2, 12), ("x^3+y^4", 2, 14)):
        f = parse_terms(text, n)
        gens = oracle.jacobian_square(f, n)
        pick = random.Random(f"monomial-cofactors:{text}")
        cof = [{(0,) * n: _sign(rng)}]
        for _ in gens[1:]:
            mono = pick.choice([(0,) * n] + [tuple(int(k == i) for k in range(n)) for i in range(n)])
            cof.append({mono: rng.choice((-1, 1))})
        g = _combine(cof, gens)
        cases.append({"kind": "monomial", "n": n, "order": order, "f": text, "g": oracle.to_text(g),
                      "f_terms": f, "g_terms": g})
    # the selftest path: random germs, witness given by random cofactors.
    # Eight draws share one support so that the median job of a pass falls
    # inside this block whatever the seed.
    for shape, (n, order) in [(0, (3, 10)), (1, (3, 10))] + [(2, (2, 12))] * 8:
        f = _random_germ(rng, shape, n)
        gens = oracle.jacobian_square(f, n)
        cof = _random_cofactors(rng, shape, n, len(gens))
        cases.append(
            {
                "kind": "selftest",
                "n": n,
                "order": order,
                "f": oracle.to_text(f),
                "cofactors": [oracle.to_text(c) for c in cof],
                "f_terms": f,
                "g_terms": _combine(cof, gens),
            }
        )
    # three-variable diagonal germ: fails on every run (FOUND_TOUGERON)
    f_text, g_text = "x^3+y^3+z^3", "x^4*y^2+x^2*y^2*z^2+3*x^2*z^4"
    cases.append({"kind": "diagonal3", "n": 3, "order": 8, "f": f_text, "g": g_text,
                  "f_terms": parse_terms(f_text, 3), "g_terms": parse_terms(g_text, 3)})
    return cases


def parse_terms(text, n=None):
    """Dict polynomial of a sum of signed monomials without parentheses, such
    as '2*x^3-y*z' or 'x1^2*x3' (the benchmark's own reader, for templates
    and for monomials lctlab printed); n defaults to the highest variable
    index named."""
    terms = []
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        coeff, powers = 1, {}
        for factor in term.split("*"):
            if factor.startswith("-"):
                coeff, factor = -coeff, factor[1:]
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            i = int(name[1:]) - 1 if len(name) > 1 else NAMES.index(name)
            powers[i] = powers.get(i, 0) + int(e or 1)
        terms.append((powers, coeff))
    if n is None:
        n = 1 + max(i for powers, _ in terms for i in powers)
    out = {}
    for powers, coeff in terms:
        mono = tuple(powers.get(i, 0) for i in range(n))
        out[mono] = out.get(mono, 0) + coeff
    return out


def absorb_setup(L, inputs):
    parse = L.polyring.parse_poly
    parsed = []
    for case in inputs:
        n = case["n"]
        item = dict(case, F=parse(case["f"], n))
        if "g" in case:
            item["G"] = parse(case["g"], n)
        else:
            item["C"] = [parse(t, n) for t in case["cofactors"]]
        parsed.append(item)
    return parsed


ABSORB_COMPOSED = "f(psi) == f + g mod m^N"


def _check_absorb(case, out):
    """f o psi == f + g mod m^N; det of the linear part != 0; the witness
    re-expands to g mod m^N.  All in the benchmark's own arithmetic."""
    n, order = case["n"], case["order"]
    f = case["f_terms"]
    witness, psi = out
    gens = [dict(g.terms) for g in witness.gens.gens]
    cof = [dict(c.poly.terms) for c in witness.coefficients]
    g = oracle.truncate(case["g_terms"], order)
    expanded = oracle.truncate(_combine(cof, gens), order)
    images = [dict(im.poly.terms) for im in psi.images]
    composed = oracle.compose(f, images, order)
    linear = [[im.get(tuple(int(k == j) for k in range(n)), 0) for j in range(n)] for im in images]
    return [
        (ABSORB_COMPOSED, composed == oracle.truncate(oracle.add(f, g), order)),
        ("det of linear part != 0", oracle.det(linear) != 0),
        ("witness re-expands to g", expanded == g),
    ]


def absorb_jobs(L, parsed, out_dir):
    jobs = []
    for k, case in enumerate(parsed):
        n, order = case["n"], case["order"]
        if "G" in case:

            def run(case=case, order=order):
                f, g = case["F"], case["G"]
                jf2 = L.ideal_power(L.jacobian_ideal(f), 2)
                wit = L.membership_truncated(g, jf2, order)
                psi = L.tougeron(f, wit, order)
                L.verify_map(f, L.TruncatedSeries(f + g, order), psi, order)
                return wit, psi

        else:

            def run(case=case, order=order):
                f = case["F"]
                jf2 = L.ideal_power(L.jacobian_ideal(f), 2)
                g = L.Polynomial.zero(f.nvars)
                for c, gen in zip(case["C"], jf2.gens):
                    g = g + c * gen
                coeffs = [L.TruncatedSeries(c, order) for c in case["C"]]
                wit = L.MembershipWitness(g.truncate(order), jf2, coeffs, order)
                psi = L.tougeron(f, wit, order)
                L.verify_map(f, L.TruncatedSeries(f + g, order), psi, order)
                return wit, psi

        fault = (FOUND_TOUGERON, ABSORB_COMPOSED) if case["kind"] == "diagonal3" else None
        jobs.append(
            Job(f"{case['kind']}{k}:n{n}:N{order}", case["kind"], run,
                lambda out, case=case: _check_absorb(case, out), 3, fault)
        )
    return jobs


# ----------------------------------------------------------------------
# ideals: membership_truncated (dense solve) and milnor_number (sparse
# incremental elimination)

# weighted-homogeneous isolated germs: (template, nvars, weights); the seed
# draws a nonzero coefficient for every monomial, which keeps both
# properties
MILNOR_TEMPLATES = (
    ("x^2*y+y^4", 2, ("3/8", "1/4")),
    ("x^4+y^6", 2, ("1/4", "1/6")),
    ("x^3*y+y^5", 2, ("4/15", "1/5")),
    ("x^5+y^7", 2, ("1/5", "1/7")),
    ("x^3+y^7", 2, ("1/3", "1/7")),
    ("x^2*y+y^5+z^5", 3, ("2/5", "1/5", "1/5")),
    ("x^3+y^4+z^5", 3, ("1/3", "1/4", "1/5")),
    ("x^3+y^3+z^3", 3, ("1/3", "1/3", "1/3")),
    ("x^3+y^3+z^3+w^3", 4, ("1/3", "1/3", "1/3", "1/3")),
    ("x^2+y^3+z^4+w^5", 4, ("1/2", "1/3", "1/4", "1/5")),
)


def _scaled(rng, text, n):
    f = parse_terms(text, n)
    return {m: c * rng.choice((-3, -2, -1, 1, 2, 3)) for m, c in f.items()}


def ideals_inputs(seed):
    rng = _rng(seed, "ideals")
    members = []
    # (shape, nvars, order, with a non-member).  n = 2 stops at order 11: one
    # dense solve at order 12 takes over a second, which would leave too few
    # passes in a run for a steady median
    for shape, n, order, with_bad in ((0, 2, 10, True), (1, 2, 11, False), (3, 3, 8, False)):
        f = _random_germ(rng, shape, n)
        gens = oracle.jacobian_square(f, n)
        g = _combine(_random_cofactors(rng, shape, n, len(gens)), gens)
        # a term of degree < 4 cannot lie in J_f^2, which sits in m^4
        low = [0] * n
        for _ in range(2 + shape % 2):
            low[shape % n] += 1
        bad = oracle.add(g, {tuple(low): rng.choice((-1, 1))})
        for target, member in ((g, True), (bad, False))[: 1 + with_bad]:
            members.append(
                {"n": n, "order": order, "f": oracle.to_text(f),
                 "g": oracle.to_text(target), "g_terms": target, "member": member}
            )
    milnor = []
    for text, n, weights in MILNOR_TEMPLATES:
        milnor.append({"n": n, "f": oracle.to_text(_scaled(rng, text, n)), "weights": weights})
    # singular along the z-axis: not isolated
    milnor.append({"n": 3, "f": oracle.to_text(_scaled(rng, "x^3+y^3", 3)), "weights": None})
    return {"members": members, "milnor": milnor}


def ideals_setup(L, inputs):
    parse = L.polyring.parse_poly
    members = [dict(c, F=parse(c["f"], c["n"]), G=parse(c["g"], c["n"])) for c in inputs["members"]]
    milnor = [dict(c, F=parse(c["f"], c["n"])) for c in inputs["milnor"]]
    return {"members": members, "milnor": milnor}


def _check_member(L, case, out):
    order = case["order"]
    if not case["member"]:
        return [("g with a term of degree < 4 is NotMember", isinstance(out, L.NotMember))]
    if isinstance(out, L.NotMember):
        return [("witness re-expands to g", False)]
    gens = [dict(g.terms) for g in out.gens.gens]
    cof = [dict(c.poly.terms) for c in out.coefficients]
    expanded = oracle.truncate(_combine(cof, gens), order)
    return [("witness re-expands to g", expanded == oracle.truncate(case["g_terms"], order))]


def _check_milnor(L, case, out):
    if case["weights"] is None:
        return [("non-isolated germ gives NonIsolated", isinstance(out, L.NonIsolated))]
    mu = oracle.milnor_orlik([Fraction(w) for w in case["weights"]])
    return [("mu == prod(1/w_i - 1)", isinstance(out, int) and out == mu)]


def ideals_jobs(L, parsed, out_dir):
    jobs = []
    for k, case in enumerate(parsed["members"]):
        def run(case=case):
            f = case["F"]
            jf2 = L.ideal_power(L.jacobian_ideal(f), 2)
            return L.membership_truncated(case["G"], jf2, case["order"])

        label = "member" if case["member"] else "nonmember"
        jobs.append(Job(f"{label}{k}:n{case['n']}:N{case['order']}", "membership", run,
                        lambda out, case=case: _check_member(L, case, out), 1))
    for k, case in enumerate(parsed["milnor"]):
        label = "milnor" if case["weights"] else "nonisolated"
        jobs.append(Job(f"{label}{k}:n{case['n']}", "milnor",
                        lambda case=case: L.milnor_number(case["F"]),
                        lambda out, case=case: _check_milnor(L, case, out), 1))
    return jobs


# ----------------------------------------------------------------------
# thresholds: newton_lct (Fourier-Motzkin), check_corD, and the CLI suites


def _random_ideal(rng, n, r, emax, pure_powers):
    gens = set()
    if pure_powers:
        for i in range(n):
            gens.add(tuple(rng.randint(2, emax) if k == i else 0 for k in range(n)))
    while len(gens) < r:
        e = tuple(rng.randint(0, emax) for _ in range(n))
        if sum(e) >= 2:
            gens.add(e)
    return sorted(gens)


# Fourier-Motzkin time has a heavy tail in the number of generators (see
# README).  The seeded ideals stop at 11 generators in 2 variables and at 5
# in 3 variables: with 6 or more generators in 3 variables one ideal in a
# hundred takes 0.2-0.9 s, and the time of a pass would depend on the seed.
# Each group: (nvars, generators, largest exponent, include pure powers).
LCT_GROUPS = (
    [(2, r, 9, False) for r in (6, 7, 8, 9, 10, 11, 6, 7, 8, 9)],
    [(2, r, 9, False) for r in (10, 11, 6, 7, 8, 9, 10, 11, 6, 7)],
    [(3, 5, 6, True)] * 10,
    [(3, 5, 5, True)] * 10,
)


def thresholds_inputs(seed):
    rng = _rng(seed, "thresholds")
    groups = [[_random_ideal(rng, n, r, emax, pp) for n, r, emax, pp in group] for group in LCT_GROUPS]
    mono = _random_ideal(rng, 2, 5, 8, False)
    cli_runs = [
        ["check", "thmA", "--grid", "8"],
        ["check", "thmB", "--grid", "8"],
        ["check", "corD"],
        ["check", "milnor"],
        ["lct", "monomial", "--ideal", ",".join(oracle.to_text({e: 1}) for e in mono)],
        ["lct", "diagonal", "--n", str(rng.randint(2, 8)), "--d", str(rng.randint(2, 8))],
    ]
    # eleven runs of one CLI call whose cost does not depend on the seed: the
    # median job of a pass falls inside this block.  A lighter call such as
    # `lct diagonal` spends a third of its time writing the report, and file
    # latency drifts between runs in a way the probe cannot follow.
    cli_runs += [["lct", "det", "--n", "5"]] * 11
    return {"groups": groups, "cli": cli_runs}


def thresholds_setup(L, inputs):
    parse = L.polyring.parse_poly

    def ideal(exps, n):
        return L.IdealGens(n, [parse(oracle.to_text({tuple(e): 1}), n) for e in exps])

    groups = [[{"exps": e, "A": ideal(e, len(e[0]))} for e in group] for group in inputs["groups"]]
    corD = [{"A": L.cli.parse_ideal(text, n), "exps": _exponents_of(text.split(","))}
            for text, n in L.cli.COR_D_CORPUS]
    return {"groups": groups, "corD": corD, "cli": inputs["cli"]}


def _check_corD(case, rep):
    exps = case["exps"]
    base = oracle.monomial_lct(exps)
    if base >= 1:
        return [("lct(a) matches", rep.lct_a == base and rep.skipped),
                ("closure skipped when lct >= 1", rep.lct_closure is None)]
    closure = oracle.monomial_lct(oracle.closure_exponents(exps))
    return [("lct(a) matches", rep.lct_a == base and not rep.skipped),
            ("lct(a + D(a)^2) matches", rep.lct_closure == closure and rep.equal == (closure == base))]


def _check_cli(argv, code, path):
    """Checks on the report file one CLI run wrote.  The file is removed
    after it is read, so a run that writes no report fails "report values"
    instead of passing on the report of the job before it."""
    try:
        with open(path) as fh:
            rows = json.load(fh)["results"]
    except (OSError, ValueError, KeyError):
        rows = None
    finally:
        if os.path.exists(path):
            os.remove(path)
    if code != 0 or rows is None:
        return [("exit code 0", code == 0), ("report values", False)]
    kind = argv[1]
    ok = bool(rows)
    if kind in ("thmA", "thmB"):
        for row in rows:
            if row["family"] == "diagonal":
                n, d = row["n"], row["d"]
                if kind == "thmA":
                    ok &= Fraction(row["lct_f"]) == min(Fraction(n, d), 1)
                ok &= oracle.diagonal_regime_ok(n, d, row["lct_fJ2"], row["alpha"])
            else:
                ok &= Fraction(row["lct_fJ2"]) == 2 == Fraction(row["alpha"])
            ok &= row["consistent"] is True
    elif kind == "corD":
        for row in rows:
            exps = _exponents_of(row["ideal"].strip("()").split(", "))
            base = oracle.monomial_lct(exps)
            ok &= Fraction(row["lct"]) == base
            if base < 1:
                closure = oracle.monomial_lct(oracle.closure_exponents(exps))
                ok &= Fraction(row["lct_closure"]) == closure and row["equal"] is True
            else:
                ok &= row["skipped"] is True
    elif kind == "milnor":
        for row in rows:
            n, d = row["n"], row["d"]
            ok &= row["mu"] == oracle.milnor_orlik([Fraction(1, d)] * n)
            ok &= row["holds"] is True and row["equality"] == (d == 2)
    elif kind == "diagonal":
        n, d = int(argv[3]), int(argv[5])
        ok &= oracle.diagonal_regime_ok(n, d, rows[0]["lct_fJ2"], Fraction(n, d))
    elif kind == "det":
        ok &= Fraction(rows[0]["lct_fJ2"]) == 2
    elif kind == "monomial":
        exps = _exponents_of(argv[3].split(","))
        ok &= Fraction(rows[0]["lct"]) == oracle.monomial_lct(exps)
    return [("exit code 0", True), ("report values", bool(ok))]


def _exponents_of(monomials):
    """Exponent vectors of a list of monomial texts, in as many variables as
    the highest index named."""
    return list(parse_terms("+".join(monomials)))


def thresholds_jobs(L, parsed, out_dir):
    jobs = []
    for k, group in enumerate(parsed["groups"]):
        expected = [oracle.monomial_lct([tuple(e) for e in case["exps"]]) for case in group]
        jobs.append(Job(f"newton_lct:group{k}", "newton_lct",
                        lambda group=group: [L.newton_lct(case["A"]) for case in group],
                        lambda out, expected=expected: [("lct == dual LP vertex minimum", out == expected)], 1))
    for k, case in enumerate(parsed["corD"]):
        jobs.append(Job(f"corD{k}", "check_corD", lambda case=case: L.check_corD(case["A"]),
                        lambda rep, case=case: _check_corD(case, rep), 2))
    path = os.path.join(out_dir, f"cli-report-{os.getpid()}.json")
    if os.path.exists(path):
        os.remove(path)
    for argv in parsed["cli"]:
        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return L.cli.main(["--output", path] + argv)

        jobs.append(Job("cli:" + " ".join(argv[:2]), "cli", run,
                        lambda code, argv=argv: _check_cli(argv, code, path), 2))
    return jobs


# ----------------------------------------------------------------------
# padic: residue histograms, exponential sums, solution counts, identity
# checks and jet counts


def padic_inputs(seed):
    rng = _rng(seed, "padic")
    units = lambda p, k: [rng.randrange(1, p) for _ in range(k)]  # noqa: E731
    return {
        "sums": [
            {"p": 7, "m": 3, "mmax": 4, "coeffs": units(7, 2)},
            {"p": 5, "m": 3, "mmax": 3, "coeffs": units(5, 3)},
            {"p": 11, "m": 3, "mmax": 3, "coeffs": units(11, 1)},
        ],
        # a*x1*x4 - b*x2*x3: unit scalings of the 2x2 determinant, so the
        # count and the work of the jet recursion do not depend on the seed
        "jets": [
            {"gen": "det", "p": 3, "m": 2, "e": 3, "coeffs": units(3, 2)},
            {"gen": "det", "p": 5, "m": 1, "e": 2, "coeffs": units(5, 2)},
            {"gen": "cubes", "p": 7, "m": 3, "e": 3, "coeffs": [1, 1]},
            {"gen": "cubes", "p": 11, "m": 2, "e": 3, "coeffs": [1, 1]},
        ],
    }


def _sum_text(coeffs, power):
    return "+".join(f"{c}*{NAMES[i]}^{power}" for i, c in enumerate(coeffs))


def padic_setup(L, inputs):
    parse = L.polyring.parse_poly
    sums = []
    for case in inputs["sums"]:
        n = len(case["coeffs"])
        power = 2 if n == 1 else 3
        sums.append(dict(case, n=n, power=power, F=parse(_sum_text(case["coeffs"], power), n)))
    jets = []
    for case in inputs["jets"]:
        a, b = case["coeffs"]
        if case["gen"] == "det":
            text, n = f"{a}*x1*x4-{b}*x2*x3", 4
        else:
            text, n = f"{a}*x^3+{b}*y^3", 2
        jets.append(dict(case, n=n, A=L.IdealGens(n, [parse(text, n)])))
    return {"sums": sums, "jets": jets}


def padic_jobs(L, parsed, out_dir):
    jobs = []
    for case in parsed["sums"]:
        p, m, mmax, coeffs, power, f = case["p"], case["m"], case["mmax"], case["coeffs"], case["power"], case["F"]
        n = len(coeffs)
        hist = oracle.diagonal_histogram(coeffs, power, p, m)
        one_var = {
            k: [oracle.histogram_sum(oracle.one_var_histogram(c, power, p, k)) for c in coeffs]
            for k in range(1, mmax + 1)
        }
        expected_e = {k: math.prod(v) for k, v in one_var.items()}
        tag = f"{_sum_text(coeffs, power)}:p{p}"

        def check_hist(h, hist=hist, p=p, m=m, n=n):
            return [("histogram total == p^(mn)", h.total == p ** (m * n)),
                    ("histogram == convolution of one-variable histograms", list(h.counts) == hist)]

        jobs.append(Job(f"histogram:{tag}:m{m}", "histogram",
                        lambda f=f, p=p, m=m: L.residue_histogram(f, p, m), check_hist, 2))
        jobs.append(Job(f"exp_sum:{tag}:m{m}", "histogram", lambda f=f, p=p, m=m: L.exp_sum(f, p, m),
                        lambda e, v=expected_e[m]: [("E == product of one-variable sums", abs(e - v) < 1e-9)], 1))
        jobs.append(Job(f"count_solutions:{tag}:k{m}", "histogram",
                        lambda f=f, p=p, m=m: L.count_solutions(f, p, m),
                        lambda c, v=hist[0]: [("N_k == convolution at 0", c == v)], 1))

        def check_decay(prof, expected_e=expected_e):
            ok = sorted(prof.values) == sorted(expected_e) and all(
                abs(prof.values[k] - v) < 1e-9 for k, v in expected_e.items())
            return [("decay levels == products of one-variable sums", ok)]

        jobs.append(Job(f"decay_profile:{tag}:mmax{mmax}", "decay",
                        lambda f=f, p=p, mmax=mmax: L.decay_profile(f, p, mmax), check_decay, 1))
        jobs.append(Job(f"igusa:{tag}:m{m}", "igusa", lambda f=f, p=p, m=m: L.igusa_identity_check(f, p, m),
                        lambda rep: [("restricted-sum identities hold", rep.all_hold)], 1))
    for case in parsed["jets"]:
        p, m, e = case["p"], case["m"], case["e"]
        a, b = case["coeffs"]
        if case["gen"] == "det":
            expected = oracle.binomial_jet_count(a, (1, 1), -b, (1, 1), p, m, e)
        else:
            expected = oracle.binomial_jet_count(a, (3,), b, (3,), p, m, e)
        jobs.append(Job(f"jets:{case['gen']}:p{p}:m{m}:e{e}", "jets",
                        lambda case=case, p=p, m=m, e=e: L.count_contact_jets(case["A"], p, m, e),
                        lambda c, v=expected: [("jet count == factor-pair enumeration", c == v)], 1))
    return jobs


WORKLOADS = {
    "absorb": (absorb_inputs, absorb_setup, absorb_jobs),
    "ideals": (ideals_inputs, ideals_setup, ideals_jobs),
    "thresholds": (thresholds_inputs, thresholds_setup, thresholds_jobs),
    "padic": (padic_inputs, padic_setup, padic_jobs),
}
