"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Exact criteria are asserted with zero tolerance;
floating-point criteria use the stated tolerances; runtime bounds are
asserted against a monotonic clock.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from lctlab.arcs import count_contact_jets
from lctlab.budget import resolve_budget
from lctlab.equiv import (
    RankDropError,
    formal_equiv_rank2,
    tougeron,
    verify_map,
)
from lctlab.expsum import decay_profile, igusa_identity_check
from lctlab.jacobian import (
    IdealGens,
    MembershipWitness,
    check_milnor_inequality,
    ideal_power,
    jacobian_ideal,
    milnor_number,
)
from lctlab.lct import (
    check_corD,
    check_theorems,
    det_roots,
    lct_det_fJ2,
    lct_diag_fJ2,
    newton_lct,
)
from lctlab.polyring import (
    Polynomial,
    TruncatedSeries,
    divided_power,
    parse_poly,
    substitute,
)
from oracles import lct_diag_bruteforce


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    else:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number:02d} PASS  {description}  [{elapsed:.2f}s]")


def P(text, nvars):
    return parse_poly(text, nvars)


def test_criterion_01_diagonal_grid():
    with criterion(1, "diagonal threshold grid matches the closed form and brute force"):
        start = time.monotonic()
        for n in range(2, 9):
            for d in range(2, 9):
                cert = lct_diag_fJ2(n, d)
                closed = min(Fraction(n + d - 2, 2 * d - 2), Fraction(n, d))
                assert cert.value == closed, (n, d)
                assert lct_diag_bruteforce(n, d, 50) == closed, (n, d)
        assert time.monotonic() - start < 1.0


def test_criterion_02_determinantal():
    with criterion(2, "determinantal threshold is 2 with the two-part witness"):
        start = time.monotonic()
        for n in range(2, 7):
            cert = lct_det_fJ2(n)
            assert cert.value == 2
            assert cert.witness.lam == tuple([1, 1] + [0] * (n - 2))
            alpha = det_roots(n).min_exponent
            assert alpha == 2
            assert alpha == cert.value  # equality of the two invariants
        assert time.monotonic() - start < 1.0


def test_criterion_03_regimes_on_families():
    with criterion(3, "minimal exponent bounds the threshold, with the exact regimes"):
        for n in range(2, 9):
            for d in range(2, 9):
                rep = check_theorems("diagonal", n, d)
                assert rep.alpha_tilde >= rep.lct_fJ2, (n, d)
                assert rep.strict == (3 <= d < n), (n, d)
                assert rep.lct_fJ2_above_one == (d < n), (n, d)
                if not rep.lct_fJ2_above_one:
                    assert rep.lct_fJ2 == rep.lct_f, (n, d)
                assert rep.regime_consistent, (n, d)


def test_criterion_04_milnor_grid():
    with criterion(4, "Milnor numbers (d-1)^n and the minimal-exponent bound"):
        start = time.monotonic()
        for n in (1, 2, 3):
            for d in (2, 3, 4):
                f = Polynomial.zero(n)
                for i in range(1, n + 1):
                    f = f + Polynomial.variable(n, i) ** d
                mu = milnor_number(f)
                assert mu == (d - 1) ** n, (n, d, mu)
                rep = check_milnor_inequality(f, Fraction(n, d))
                assert rep.holds, (n, d)
                assert rep.equality == (d == 2), (n, d)
        assert time.monotonic() - start < 30.0


def _random_mult3(rng, n):
    terms = {}
    for _ in range(rng.randint(3, 5)):
        mono = [0] * n
        for _ in range(rng.randint(3, 5)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.choice([-2, -1, 1, 2])
    cube = tuple(3 if i == 0 else 0 for i in range(n))
    terms.setdefault(cube, 1)
    f = Polynomial(n, terms)
    return f if (not f.is_zero() and f.multiplicity() == 3) else None


def _random_square_witness(rng, f, order):
    jf2 = ideal_power(jacobian_ideal(f), 2)
    n = f.nvars
    coeffs = []
    g = Polynomial.zero(n)
    for gen in jf2.gens:
        if rng.random() < 0.55:
            c = Polynomial(
                n, {tuple(rng.randint(0, 1) for _ in range(n)): rng.choice([-1, 1])}
            )
        else:
            c = Polynomial.zero(n)
        coeffs.append(c)
        g = g + c * gen
    wit = MembershipWitness(
        g.truncate(order), jf2, [TruncatedSeries(c, order) for c in coeffs], order
    )
    assert wit.verify()
    return wit, g


def test_criterion_05_formal_equivalence():
    with criterion(5, "20 absorption cases and 10 rank-preserving cases verify exactly"):
        start = time.monotonic()
        rng = random.Random(424242)
        order = 12

        done = 0
        while done < 20:
            n = 2 if done % 3 else 3  # a third of the cases in three variables
            f = _random_mult3(rng, n)
            if f is None:
                continue
            wit, g = _random_square_witness(rng, f, order)
            psi = tougeron(f, wit, order)
            ok, bad = verify_map(f, TruncatedSeries(f + g, order), psi, order)
            assert ok, (str(f), str(g), bad)
            done += 1

        done = 0
        while done < 10:
            n = rng.choice((2, 3))
            r = rng.randint(1, n - 1)
            terms = {}
            for i in range(r):
                mono = [0] * n
                mono[i] = 2
                terms[tuple(mono)] = rng.choice([1, 2, -1])
            for _ in range(rng.randint(1, 3)):
                mono = [0] * n
                for _ in range(3):
                    mono[rng.randrange(r, n)] += 1
                terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.choice([-1, 1])
            f = Polynomial(n, terms)
            if f.multiplicity() != 2:
                continue
            try:
                wit, g = _random_square_witness(rng, f, order)
                res = formal_equiv_rank2(f, wit, order)
            except RankDropError:
                continue
            except ValueError:
                continue  # degenerate residual (e.g. mult(h) < 3 after cancellation)
            ok, bad = verify_map(f + g, res.normal_form(), res.map, order)
            assert ok, (str(f), str(g), bad)
            assert all(c != 0 for c in res.diag_coeffs)
            done += 1
        assert time.monotonic() - start < 60.0


def test_criterion_06_igusa_identities():
    with criterion(6, "restricted-sum identities hold to 1e-9 on the test family"):
        budget = resolve_budget(None)
        cases = [
            (P("x^2", 1), IdealGens(1, [P("x", 1)])),
            (P("x^3+y^3", 2), IdealGens(2, [P("x", 2), P("y", 2)])),
            (
                P("x1^3+x2^3+x3^3", 3),
                IdealGens(3, [P("x1", 3), P("x2", 3), P("x3", 3)]),
            ),
        ]
        checked = 0
        for f, z in cases:
            n = f.nvars
            for p in (7, 11):
                for m in (2, 3):
                    if (p**m) ** n > budget:
                        continue  # budget permitting, per the criterion
                    rep = igusa_identity_check(f, p, m, z)
                    assert rep.efz1, (str(f), p, m, rep.delta_efz1)
                    assert rep.delta_efz1 < 1e-9
                    assert rep.efzj, (str(f), p, m, rep.delta_efzj)
                    assert rep.delta_efzj < 1e-9
                    assert rep.orth in (True, "vacuous"), (str(f), p, m)
                    checked += 1
        assert checked >= 9  # all in-budget cells ran


def test_criterion_07_decay_bounds():
    with criterion(7, "decay exponents respect the threshold bound; Gauss case exact"):
        start = time.monotonic()
        ref = lct_diag_fJ2(2, 3).value
        assert ref == Fraction(2, 3)
        prof = decay_profile(P("x^3+y^3", 2), 7, 4, lct_ref=ref)
        for m in (3, 4):
            assert prof.sigma[m] >= float(ref) - 0.15, (m, prof.sigma[m])
        assert not prof.flagged
        gauss = decay_profile(P("x^2", 1), 11, 3, lct_ref=Fraction(1, 2))
        for m in (2, 3):
            assert abs(gauss.sigma[m] - 0.5) < 1e-6, (m, gauss.sigma[m])
        assert time.monotonic() - start < 120.0


COR_D_IDEALS = [
    (("x^3", "y^3"), 2),
    (("x^2*y^2",), 2),
    (("x^4",), 1),
    (("x^3*y",), 2),
    (("x^5", "y^2"), 2),
    (("x^4", "y^4"), 2),
    (("x^6", "x^2*y^2", "y^6"), 2),
    (("x^2*y^3",), 2),
    (("x^4", "x*y^2", "y^4"), 2),
    (("x1^4", "x2^4", "x3^4"), 3),
]


def test_criterion_08_derived_ideal_closure():
    with criterion(8, "threshold is unchanged by adding the squared derived ideal"):
        assert len(COR_D_IDEALS) == 10
        for texts, nvars in COR_D_IDEALS:
            a = IdealGens(nvars, [P(t, nvars) for t in texts])
            base = newton_lct(a)
            assert base < 1, (texts, base)  # corpus is within the hypothesis
            rep = check_corD(a)
            assert not rep.skipped
            assert rep.equal, (texts, rep.lct_a, rep.lct_closure)


def test_criterion_09_jet_counts():
    with criterion(9, "jet counts: coordinate powers and singular-matrix slice"):
        a = IdealGens(1, [P("x", 1)])
        for p in (3, 5):
            for m in (1, 2):
                for e in range(0, m + 2):
                    assert count_contact_jets(a, p, m, e) == p ** (m + 1 - e)
        det = IdealGens(4, [P("x1*x4 - x2*x3", 4)])
        for p in (3, 5):
            count = count_contact_jets(det, p, 1, 1)
            singular = p**3 + p**2 - p
            assert count == p**4 * singular, (p, count)
            assert count // p**4 == singular


def _taylor_rhs(f, us, vs, order):
    n = f.nvars
    total = Polynomial.zero(n)
    maxdeg = [max((m[i] for m in f.terms), default=0) for i in range(n)]
    for alpha in product(*[range(d + 1) for d in maxdeg]):
        dp = divided_power(f, alpha)
        if dp.is_zero():
            continue
        term = substitute(dp, us, order).poly
        for i, a in enumerate(alpha):
            for _ in range(a):
                term = term.mul_truncated(vs[i], order)
        total = total + term
    return total.truncate(order)


def test_criterion_10_taylor_property_suite():
    with criterion(10, "divided-power Taylor identity on 100 seeded instances"):
        rng = random.Random(90210)
        for case in range(100):
            n = rng.choice((1, 2, 2))
            order = rng.randint(4, 7)
            terms = {
                tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 5))
            }
            f = Polynomial(n, terms)
            us, vs = [], []
            for _ in range(n):
                us.append(
                    Polynomial.variable(n, rng.randint(1, n)) * rng.randint(-2, 2)
                )
                vs.append(
                    Polynomial.variable(n, rng.randint(1, n)) ** rng.randint(1, 2)
                    * rng.randint(-2, 2)
                )
            lhs = substitute(f, [u + v for u, v in zip(us, vs)], order).poly
            rhs = _taylor_rhs(f, us, vs, order)
            assert lhs == rhs, (case, str(f))
