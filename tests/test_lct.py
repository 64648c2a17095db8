"""Thresholds: the Newton-polyhedron oracle, the two families, root tables."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lctlab
from lctlab.budget import BudgetExceededError
from lctlab.jacobian import IdealGens, ideal_power
from lctlab.lct import (
    RayValuation,
    _det_class_codim,
    _det_slice_classes,
    _det_slice_minimum,
    check_corD,
    check_theorems,
    det_roots,
    fourier_motzkin_minimize,
    lct_det_fJ2,
    lct_diag_bruteforce,
    lct_diag_fJ2,
    newton_lct,
    newton_lct_certificate,
    newton_lct_witness_ray,
    yano_roots,
)
from lctlab.polyring import Polynomial, parse_poly


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


def test_tampered_certificates_fail():
    a = ideal(3, "x1^4", "x2^4", "x3^4", "x1*x2*x3^2")
    cert = newton_lct_certificate(a)
    assert cert.check(a)
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
    for bad in tampered:
        assert not dataclasses.replace(cert, witness=bad).check(a), bad
    assert not dataclasses.replace(cert, value=cert.value + 1).check(a)


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


# ---------------------------------------------------------------- determinantal family


@pytest.mark.parametrize("n", range(2, 7))
def test_det_value_and_witness(n):
    cert = lct_det_fJ2(n)
    assert cert.value == 2
    assert cert.witness.lam == tuple([1, 1] + [0] * (n - 2))
    assert cert.check(None)


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
