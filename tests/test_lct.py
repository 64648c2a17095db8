"""Thresholds: the Newton-polyhedron oracle, the two families, root tables."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import lctlab
from lctlab.budget import BudgetExceededError
from lctlab.jacobian import IdealGens, _mono_divides, ideal_power
from lctlab.lct import (
    NewtonWitness,
    OrbitInvariants,
    RayValuation,
    _det_class_codim,
    _det_slice_classes,
    _det_slice_minimum,
    check_corD,
    check_theorems,
    det_roots,
    fourier_motzkin_minimize,
    lct_det_fJ2,
    lct_diag_fJ2,
    newton_lct,
    newton_lct_certificate,
    orbit_invariants,
    yano_roots,
)
from lctlab.linalg import SparseEliminator
from lctlab.polyring import Polynomial, parse_poly
from oracles import (
    lct_diag_bruteforce,
    newton_check_fractions,
    newton_lct_witness_ray,
    newton_walk_by_solves,
)


def P(text, nvars):
    return parse_poly(text, nvars)


def ideal(nvars, *texts):
    return IdealGens(nvars, [P(t, nvars) for t in texts])


# ---------------------------------------------------------------- newton_lct


def test_newton_maximal_ideal():
    a = IdealGens(3, [Polynomial.variable(3, i) for i in (1, 2, 3)])
    assert newton_lct(a) == 3


def test_newton_principal_power():
    assert newton_lct(ideal(1, "x^4")) == Fraction(1, 4)


def test_newton_mixed_hull():
    # diagonal point (3/2, 3/2) sits on the hull segment of (3,0) and (0,3)
    assert newton_lct(ideal(2, "x^3", "y^3", "x^2*y^2")) == Fraction(2, 3)


def test_newton_unit_and_errors():
    assert newton_lct(IdealGens(2, [Polynomial.constant(2, 5)])) == math.inf
    with pytest.raises(ValueError):
        newton_lct(ideal(2, "x + y"))  # not monomial
    with pytest.raises(ValueError):
        newton_lct(IdealGens(1, [Polynomial.zero(1)]))


@pytest.mark.parametrize(
    "texts,nvars,expected",
    [
        (("x^3", "y^3"), 2, Fraction(2, 3)),
        (("x^2*y^2",), 2, Fraction(1, 2)),
        (("x^5", "y^2"), 2, Fraction(7, 10)),
        (("x^3*y",), 2, Fraction(1, 3)),
        (("x^4", "x*y^2", "y^4"), 2, Fraction(5, 8)),
        (("x1^4", "x2^4", "x3^4"), 3, Fraction(3, 4)),
    ],
)
def test_newton_against_ray_enumeration(texts, nvars, expected):
    a = ideal(nvars, *texts)
    lp_value = newton_lct(a)
    assert lp_value == expected
    bound = max(sum(m) for m in a.exponents()) + 2
    ray_value, ray = newton_lct_witness_ray(a, bound)
    assert ray_value == lp_value
    # the certificate self-verifies: value equals A(ray)/ord_ray(a)
    assert Fraction(ray.log_discrepancy(), ray.ord_ideal(a)) == lp_value


def test_newton_monotone_in_inclusion():
    small = ideal(2, "x^4", "y^4")
    big = ideal(2, "x^2", "y^4")  # contains the first (x^4 = (x^2)^2)
    assert newton_lct(small) <= newton_lct(big)


def test_newton_power_scaling():
    a = ideal(2, "x^2*y^2")
    assert newton_lct(ideal_power(a, 2)) == newton_lct(a) / 2
    b = ideal(2, "x^3", "y^3")
    assert newton_lct(ideal_power(b, 3)) == newton_lct(b) / 3


# ---------------------------------------------------------------- vertex enumeration


def newton_lct_fm(a):
    """The threshold by Fourier-Motzkin elimination, independent of the vertex
    enumeration: 1 / min t over convex weights mu with sum(mu_j v_j) <= t (1,..,1)."""
    exps = a.exponents()
    n = a.nvars
    r = len(exps)
    # variables: mu_1..mu_{r-1}, t  (mu_r = 1 - sum of the others)
    num_vars = r
    t_idx = r - 1
    ineqs = []
    for j in range(r - 1):
        coeffs = [Fraction(0)] * num_vars
        coeffs[j] = Fraction(-1)
        ineqs.append((coeffs, Fraction(0)))  # -mu_j <= 0
    coeffs = [Fraction(1)] * (r - 1) + [Fraction(0)]
    ineqs.append((coeffs, Fraction(1)))  # sum mu_j <= 1  (mu_r >= 0)
    last = exps[-1]
    for i in range(n):
        # sum_j mu_j (v_j_i - v_r_i) + v_r_i <= t
        coeffs = [Fraction(exps[j][i] - last[i]) for j in range(r - 1)]
        coeffs.append(Fraction(-1))
        ineqs.append((tuple(coeffs), Fraction(-last[i])))
    return Fraction(1) / fourier_motzkin_minimize(num_vars, ineqs, t_idx)


def random_monomial_ideal(rng, n, r, emax):
    exps = set()
    while len(exps) < r:
        e = tuple(rng.randint(0, emax) for _ in range(n))
        if sum(e):
            exps.add(e)
    return IdealGens(n, [Polynomial(n, {e: rng.randint(1, 5)}) for e in sorted(exps)])


FOUND_IDEAL = "x^3*y^3*z^3,x^6*z^2,x^3*y^6,z^6,x^6,x^2*y^2*z^2,x*y^3,y^3*z,x^6*y^2"


def grid_ideals():
    rng = random.Random(20260517)
    for n, rmax, emax in ((1, 4, 9), (2, 7, 7), (3, 7, 4)):
        for r in range(1, rmax + 1):
            for _ in range(4):
                yield random_monomial_ideal(rng, n, r, emax)


def test_vertex_enumeration_matches_fourier_motzkin():
    for a in grid_ideals():
        value = newton_lct(a)
        assert value == newton_lct_fm(a), str(a)
        cert = newton_lct_certificate(a)
        assert cert.value == value and cert.check(a), str(a)


def test_vertex_enumeration_matches_ray_search_in_four_variables():
    rng = random.Random(4)
    for _ in range(12):
        a = random_monomial_ideal(rng, 4, rng.randint(1, 5), 3)
        cert = newton_lct_certificate(a)
        bound = max(4, *cert.witness.ray.weights)
        ray_value, _ = newton_lct_witness_ray(a, bound)
        assert ray_value == cert.value == newton_lct(a), str(a)


def test_certificate_on_fixed_ideals():
    cases = [
        (ideal(2, "x^3", "y^3", "x^2*y^2"), Fraction(2, 3)),
        (ideal(3, "x1^4", "x2^4", "x3^4"), Fraction(3, 4)),
        (ideal(2, "x^4", "x^5", "x*y^2", "x^2*y^2", "y^4"), Fraction(5, 8)),
        (ideal(3, "x"), Fraction(1)),
    ]
    for a, expected in cases:
        cert = newton_lct_certificate(a)
        assert cert.value == expected
        assert cert.check(a)
        lam = dict(cert.witness.lam)
        assert all(c >= 0 for c in lam.values()) and sum(lam.values()) == expected
        ray = cert.witness.ray
        assert Fraction(ray.log_discrepancy(), ray.ord_ideal(a)) == expected


def test_degenerate_vertex_finds_a_dual_feasible_basis():
    # the optimal vertex (1/3, 1/3) lies on all three constraints; the first
    # basis there, {y^3, x*y^2}, has dual -1/3 on y^3, so the certificate
    # must come from another basis at the same vertex
    a = ideal(2, "y^3", "x*y^2", "x^3")
    cert = newton_lct_certificate(a)
    assert cert.value == Fraction(2, 3) and cert.check(a)
    assert cert.witness.ray.weights == (1, 1)
    assert dict(cert.witness.lam) == {(0, 3): Fraction(1, 3), (3, 0): Fraction(1, 3)}
    assert newton_lct(a) == newton_lct_fm(a)


TAMPERED_IDEAL = ("x1^4", "x2^4", "x3^4", "x1*x2*x3^2")


def tampered_certificates(cert):
    """Certificates that differ from ``cert`` in one place: a multiplier
    raised, negated, moved off the generators or dropped, another ray, or
    another value."""
    w = cert.witness
    lam = list(w.lam)
    v, c = lam[0]
    tampered = [
        dataclasses.replace(w, lam=tuple([(v, c + Fraction(1, 100))] + lam[1:])),
        dataclasses.replace(w, lam=tuple([(v, -c)] + lam[1:])),
        dataclasses.replace(w, lam=tuple([((9, 9, 9), c)] + lam[1:])),
        dataclasses.replace(w, lam=tuple(lam[1:])),
        dataclasses.replace(w, ray=RayValuation((1, 2, 3))),
        dataclasses.replace(w, ray=RayValuation((0, 1, 0))) if w.ray.weights != (0, 1, 0)
        else dataclasses.replace(w, ray=RayValuation((1, 0, 0))),
    ]
    return [dataclasses.replace(cert, witness=bad) for bad in tampered] + [
        dataclasses.replace(cert, value=cert.value + 1)
    ]


def test_tampered_certificates_fail():
    a = ideal(3, *TAMPERED_IDEAL)
    cert = newton_lct_certificate(a)
    assert cert.check(a)
    for bad in tampered_certificates(cert):
        assert not bad.check(a), bad


def test_certificate_needs_a_proper_ideal_and_a_budget():
    with pytest.raises(ValueError):
        newton_lct_certificate(IdealGens(2, [Polynomial.constant(2, 1)]))
    a = ideal(2, "x^3", "y^3")  # two generators in two variables: C(4, 2) bases
    assert newton_lct(a, budget=6) == Fraction(2, 3)
    with pytest.raises(BudgetExceededError):
        newton_lct(a, budget=5)


def _run_python(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lctlab.__file__)))
    return subprocess.run(
        [sys.executable, *argv], env=env, timeout=timeout, capture_output=True, text=True
    )


def test_certificate_check_survives_optimized_mode():
    # python -O strips assert statements; the certificate check must still raise
    script = (
        "import lctlab.lct as T\n"
        "from lctlab.polyring import parse_poly\n"
        "T.LctCertificate.check = lambda self, context: False\n"
        "try:\n"
        "    T.newton_lct(T.IdealGens(2, [parse_poly('x^3', 2), parse_poly('y^3', 2)]))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert _run_python("-O", "-c", script, timeout=60).returncode == 0


def test_nine_generator_ideal_finishes():
    # Fourier-Motzkin did not finish this one within a minute
    proc = _run_python("-m", "lctlab.cli", "lct", "monomial", "--ideal", FOUND_IDEAL, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "11/18"


def fraction_vertex_certificate(a):
    """(value, witness) of ``newton_lct_certificate`` as it was computed before
    the integer vertex solves: a ``Fraction`` solution per basis, read as p / q
    through the lcm of its denominators and compared as a ``Fraction``."""
    def solve_square(columns, target):
        elim = SparseEliminator()
        for k, col in columns.items():
            if not elim.add_row(col, tag=k):
                return None
        return elim.solve(target)

    exps = a.exponents()
    n = a.nvars
    distinct = set(exps)
    gens = sorted(v for v in distinct if not any(u != v and _mono_divides(u, v) for u in distinct))
    m = len(gens)
    best = None
    optimal = []
    for basis in combinations(range(m + n), n):
        rows = [k for k in basis if k < m]
        if not rows:
            continue
        fixed = {k - m for k in basis[len(rows):]}
        free = [i for i in range(n) if i not in fixed]
        w = solve_square({i: {j: gens[j][i] for j in rows if gens[j][i]} for i in free},
                         dict.fromkeys(rows, 1))
        if w is None:
            continue
        q = math.lcm(*(x.denominator for x in w.values()))
        p = tuple(w[i].numerator * (q // w[i].denominator) if i in w else 0 for i in range(n))
        if min(p) < 0:
            continue
        total = Fraction(sum(p), q)
        if best is not None and total > best:
            continue
        if any(sum(x * y for x, y in zip(p, v)) < q for v in gens):
            continue
        if best is None or total < best:
            best, optimal = total, []
        optimal.append((rows, free, p))
    for rows, free, p in optimal:
        lam = solve_square({j: {i: gens[j][i] for i in free if gens[j][i]} for j in rows},
                           dict.fromkeys(free, 1))
        if any(c < 0 for c in lam.values()):
            continue
        if any(sum(c * gens[j][i] for j, c in lam.items()) > 1 for i in range(n)):
            continue
        g = math.gcd(*p)
        return best, NewtonWitness(
            ray=RayValuation(tuple(x // g for x in p)),
            lam=tuple((gens[j], c) for j, c in sorted(lam.items())),
        )
    raise AssertionError("no optimal basis is dual feasible")


def test_integer_vertex_solves_agree_with_the_fraction_path():
    rng = random.Random(1729)
    corpus = [
        ideal(2, "y^3", "x*y^2", "x^3"),  # degenerate optimal vertex
        ideal(2, "x^2*y^3"),
        ideal(3, "x1^4", "x2^4", "x3^4"),
    ]
    for n, rmax, emax in ((1, 3, 9), (2, 7, 7), (3, 6, 4)):
        for r in range(1, rmax + 1):
            for _ in range(6):
                corpus.append(random_monomial_ideal(rng, n, r, emax))
    for a in corpus:
        cert = newton_lct_certificate(a)
        value, witness = fraction_vertex_certificate(a)
        assert cert.value == value and cert.witness == witness, str(a)
        assert all(type(c) is Fraction for _, c in cert.witness.lam)


def test_one_pass_agrees_with_the_two_pass_walk_in_four_variables():
    rng = random.Random(2304)
    for r in range(1, 7):
        for _ in range(5):
            a = random_monomial_ideal(rng, 4, r, 4)
            cert = newton_lct_certificate(a)
            value, witness = fraction_vertex_certificate(a)
            assert cert.value == value and cert.witness == witness, str(a)


@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_agrees_with_the_two_pass_walk_on_powers_of_the_maximal_ideal(n):
    # the optimal vertex (1/d, ..., 1/d) lies on every generator's hyperplane
    m = IdealGens(n, [Polynomial.variable(n, i) for i in range(1, n + 1)])
    for d in range(1, 6):
        a = ideal_power(m, d)
        cert = newton_lct_certificate(a)
        value, witness = fraction_vertex_certificate(a)
        assert cert.value == value == Fraction(n, d)
        assert cert.witness == witness, (n, d)


def test_adjugate_walk_agrees_with_the_two_solve_walk():
    rng = random.Random(2027)
    m3 = IdealGens(3, [Polynomial.variable(3, i) for i in range(1, 4)])
    corpus = list(grid_ideals()) + [ideal_power(m3, d) for d in range(1, 5)]
    corpus.append(ideal(4, "x1^2*x2", "x2^2*x3", "x3^2*x4", "x4^2*x1"))  # first basis 4 x 4
    # a zero multiplier on a generator row of the certified basis
    corpus += [ideal(2, "x*y^4", "x^2*y^2"), ideal(3, "x^3*y^3*z^2", "x^3*y^4")]
    for r in range(1, 7):
        for _ in range(4):
            corpus.append(random_monomial_ideal(rng, 4, r, 4))
    for a in corpus:
        cert = newton_lct_certificate(a)
        value, witness = newton_walk_by_solves(a)
        assert cert.value == value and cert.witness == witness, str(a)


def test_integer_check_agrees_with_the_fraction_check():
    verdicts = []
    for a in grid_ideals():
        cert = newton_lct_certificate(a)
        verdicts.append(cert.check(a))
        assert cert.check(a) == newton_check_fractions(cert, a), str(a)
    a = ideal(3, *TAMPERED_IDEAL)
    for bad in tampered_certificates(newton_lct_certificate(a)):
        verdicts.append(bad.check(a))
        assert bad.check(a) == newton_check_fractions(bad, a), bad
    # multipliers given as ints, a true certificate and a false one, and
    # negative multipliers that every other condition lets through
    for a, lam, value in (
        (ideal(3, "x1"), (((1, 0, 0), 1),), Fraction(1)),
        (ideal(2, "x^2", "y^3"), (((2, 0), 0), ((0, 3), 0)), Fraction(5, 6)),
        (ideal(2, "x^2", "y^2", "x*y"),
         (((2, 0), Fraction(-1, 2)), ((0, 2), Fraction(-1, 2)), ((1, 1), 2)), Fraction(1)),
    ):
        cert = newton_lct_certificate(a)
        assert cert.value == value
        given = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, lam=lam))
        verdicts.append(given.check(a))
        assert given.check(a) == newton_check_fractions(given, a), str(a)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 9, verdicts


def test_one_pass_stops_at_the_first_certified_basis(monkeypatch):
    adjugate = lctlab.lct.adjugate_dense
    calls = []

    def counted(matrix):
        calls.append(1)
        return adjugate(matrix)

    monkeypatch.setattr(lctlab.lct, "adjugate_dense", counted)
    xyz = IdealGens(3, [Polynomial.variable(3, i) for i in range(1, 4)])
    cases = [
        (ideal_power(xyz, 4), Fraction(3, 4), 10),  # C(18, 3) = 816 bases in all
        (ideal(3, *FOUND_IDEAL.split(",")), Fraction(11, 18), 3),  # C(8, 3) = 56 bases in all
    ]
    for a, value, most in cases:
        calls.clear()
        assert newton_lct_certificate(a).value == value
        assert 0 < len(calls) <= most, (str(a), len(calls))


# ---------------------------------------------------------------- diagonal family


def test_diag_examples():
    c = lct_diag_fJ2(2, 5)
    assert c.value == Fraction(2, 5)
    assert (c.witness.a, c.witness.b) == (0, 1)
    c = lct_diag_fJ2(3, 2)
    assert c.value == Fraction(3, 2)
    c = lct_diag_fJ2(5, 3)
    assert c.value == Fraction(3, 2)
    assert (c.witness.a, c.witness.b) == (1, 1)


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("d", range(2, 13))
def test_diag_closed_form_grid(n, d):
    cert = lct_diag_fJ2(n, d)
    assert cert.value == min(Fraction(n + d - 2, 2 * d - 2), Fraction(n, d))
    assert cert.check((n, d))


def test_diag_brute_force_cross_check():
    for n in range(2, 9):
        for d in range(2, 9):
            assert lct_diag_bruteforce(n, d, 50) == lct_diag_fJ2(n, d).value


# ---------------------------------------------------------------- orbit invariants


def test_orbit_invariants_values():
    oi = orbit_invariants((1, 1))
    assert (oi.codim, oi.ord_f, oi.ord_J) == (4, 2, 1)
    assert oi.ord_fJ2 == 2  # ratio 4/2 = 2
    oi = orbit_invariants((1, 0))
    assert (oi.codim, oi.ord_f, oi.ord_J) == (1, 1, 0)
    oi = orbit_invariants((2, 1, 0))
    assert (oi.codim, oi.ord_f, oi.ord_J) == (5, 3, 1)


def test_orbit_invariants_rejects_increasing():
    with pytest.raises(ValueError):
        orbit_invariants((1, 2))
    with pytest.raises(ValueError):
        orbit_invariants((2, -1))


# ---------------------------------------------------------------- determinantal family


@pytest.mark.parametrize("n", range(2, 7))
def test_det_value_and_witness(n):
    cert = lct_det_fJ2(n)
    assert cert.value == 2
    assert cert.witness.lam == tuple([1, 1] + [0] * (n - 2))
    assert cert.check(None)


@pytest.mark.parametrize("n", range(2, 7))
def test_tampered_partition_witnesses_fail(n):
    cert = lct_det_fJ2(n)
    assert isinstance(cert.witness, OrbitInvariants)
    assert cert.witness == orbit_invariants(cert.witness.lam)
    zeros = (0,) * (n - 2)
    tampered = [
        orbit_invariants((2, 1) + zeros),  # ratio 5/2
        orbit_invariants((1, 0) + zeros),  # one part: ord_fJ2 is 0
        # stored invariants of (1, 1, ...) on lam = (2, 1, ...): the check
        # re-derives them from lam instead of reading them
        dataclasses.replace(orbit_invariants((2, 1) + zeros), codim=4, ord_f=2, ord_J=1),
        # not partitions: increasing, and a negative part
        dataclasses.replace(cert.witness, lam=(1, 2) + zeros),
        dataclasses.replace(cert.witness, lam=(2, -1) + zeros),
    ]
    for bad in tampered:
        assert not dataclasses.replace(cert, witness=bad).check(None), bad
    assert not dataclasses.replace(cert, value=Fraction(5, 2)).check(None)


def _partitions_bounded(n_parts: int, total: int):
    """Weakly decreasing non-negative integer tuples of given length with
    sum <= total (and at least the first two entries positive)."""

    def rec(i, prev, remaining, acc):
        if i == n_parts:
            yield tuple(acc)
            return
        for v in range(min(prev, remaining), -1, -1):
            acc.append(v)
            yield from rec(i + 1, v, remaining - v, acc)
            acc.pop()

    yield from rec(0, total, total, [])


def _det_minimum_enumerated(n, bound):
    """Oracle: the least ratio codim / denom over every partition of the slice
    sum(lambda) <= bound with two parts, the least partition reaching it, and
    the number of classes (lambda_1, sum of the tail) met on the way."""
    best_num, best_den = 1, 0  # the ratio codim / denom of best_lam; 1/0 is +inf
    best_lam = None
    classes = set()
    for lam in _partitions_bounded(n, bound):
        if lam[1] == 0:
            continue
        classes.add((lam[0], sum(lam[1:])))
        codim = sum(l * (2 * i + 1) for i, l in enumerate(lam))
        denom = min(sum(lam), 2 * sum(lam[1:]))
        # compare codim / denom with the best ratio by cross-multiplication
        lhs, rhs = codim * best_den, best_num * denom
        if lhs < rhs or (lhs == rhs and lam < best_lam):
            best_num, best_den = codim, denom
            best_lam = lam
    return Fraction(best_num, best_den), best_lam, len(classes)


@pytest.mark.parametrize("n", range(2, 10))
def test_det_slice_minimum_matches_the_enumeration(n):
    # same value and witness, and the budget charges exactly the classes there are
    for bound in range(2, 4 * n + 1):
        value, lam, classes = _det_minimum_enumerated(n, bound)
        assert _det_slice_minimum(n, bound) == (value, lam), bound
        assert sum(_det_slice_classes(n, bound).values()) == classes, bound


@pytest.mark.parametrize("n", range(2, 8))
def test_det_class_minimum_is_the_unique_greedy_tail(n):
    bound = 4 * n
    classes = {}
    for lam in _partitions_bounded(n, bound):
        if lam[1] == 0:
            continue
        codim = sum(l * (2 * i + 1) for i, l in enumerate(lam))
        classes.setdefault((lam[0], sum(lam[1:])), []).append((codim, lam))
    caps = _det_slice_classes(n, bound)
    assert set(classes) == {(l1, t) for l1, cap in caps.items() for t in range(1, cap + 1)}
    for (l1, t), members in classes.items():
        q, r = divmod(t, l1)
        greedy = ((l1,) * (q + 1) + (r,) + (0,) * n)[:n]
        least = min(codim for codim, _ in members)
        assert sum(l * (2 * i + 1) for i, l in enumerate(greedy)) == l1 * (q + 1) ** 2 + r * (2 * q + 3)
        assert _det_class_codim(l1, t) == least
        assert [lam for codim, lam in members if codim == least] == [greedy]


def test_det_budget_counts_slice_classes():
    # n = 5, slice sum <= 20: caps 4, 8, 12, 16 for lambda_1 = 1..4, then 15, 14, ..., 1
    assert sum(_det_slice_classes(5, 20).values()) == 160
    assert lct_det_fJ2(5, budget=160).value == 2
    with pytest.raises(BudgetExceededError, match="needs 160 slice classes, budget is 159"):
        lct_det_fJ2(5, budget=159)


@pytest.mark.parametrize("n", [12, 24, 40])
def test_det_scales_to_large_n(n):
    cert = lct_det_fJ2(n)
    assert cert.value == 2
    assert cert.witness.lam == (1, 1) + (0,) * (n - 2)
    assert cert.check(None)


def test_det_cli_at_n_40_finishes():
    # the partition enumeration took 3.9 s at n = 12 and did not finish at n = 40
    proc = _run_python("-m", "lctlab.cli", "lct", "det", "--n", "40", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "2"


# ---------------------------------------------------------------- root tables


def test_yano_small_cases():
    t = yano_roots(1, 3)
    assert t.sorted_roots() == [(Fraction(1, 3), 1), (Fraction(2, 3), 1)]
    assert t.min_exponent == Fraction(1, 3)
    t = yano_roots(2, 2)
    assert t.sorted_roots() == [(Fraction(1), 1)]
    t = yano_roots(2, 3)
    assert t.sorted_roots() == [
        (Fraction(2, 3), 1),
        (Fraction(1), 2),
        (Fraction(4, 3), 1),
    ]
    assert t.min_exponent == Fraction(2, 3)


def test_yano_counts_scale():
    assert yano_roots(3, 4).size == 27
    assert yano_roots(8, 8).size == 7**8
    assert yano_roots(8, 8).min_exponent == 1


def test_det_roots_values():
    t = det_roots(3)
    assert t.sorted_roots() == [(Fraction(2), 1), (Fraction(3), 1)]
    assert t.min_exponent == 2
    assert det_roots(2).min_exponent == 2
    assert det_roots(5).min_exponent == 2


# ---------------------------------------------------------------- theorem checks


def test_check_theorems_examples():
    rep = check_theorems("diagonal", 4, 4)
    assert rep.alpha_tilde == 1 and rep.lct_fJ2 == 1 and rep.lct_f == 1
    assert rep.equality and not rep.lct_fJ2_above_one and rep.regime_consistent

    rep = check_theorems("diagonal", 4, 3)
    assert rep.alpha_tilde == Fraction(4, 3)
    assert rep.lct_fJ2 == Fraction(5, 4)
    assert rep.strict and rep.regime_consistent

    rep = check_theorems("determinantal", 3)
    assert rep.alpha_tilde == 2 == rep.lct_fJ2
    assert rep.regime_consistent


def test_check_theorems_full_grids():
    for n in range(2, 9):
        for d in range(2, 9):
            rep = check_theorems("diagonal", n, d)
            assert rep.inequality_holds
            assert rep.regime_consistent, (n, d)
            assert rep.strict == (3 <= d < n)
            assert rep.lct_fJ2_above_one == (d < n)
    for n in range(2, 7):
        assert check_theorems("determinantal", n).regime_consistent


# ---------------------------------------------------------------- corD


def test_corD_examples():
    rep = check_corD(ideal(2, "x^3", "y^3"))
    assert not rep.skipped
    assert rep.lct_a == Fraction(2, 3) and rep.lct_closure == Fraction(2, 3)
    assert rep.equal

    rep = check_corD(ideal(1, "x^4"))
    assert rep.lct_a == Fraction(1, 4) and rep.equal

    rep = check_corD(ideal(2, "x^2*y^2"))
    assert rep.lct_a == Fraction(1, 2) and rep.equal


def test_corD_skips_large_threshold():
    rep = check_corD(ideal(2, "x", "y"))
    assert rep.skipped and rep.equal is None
