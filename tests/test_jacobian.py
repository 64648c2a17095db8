"""Ideals, membership witnesses, quadratic rank, Milnor numbers."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lctlab
from lctlab.jacobian import (
    IdealGens,
    Inconclusive,
    MembershipWitness,
    NonIsolated,
    NotMember,
    check_milnor_inequality,
    ideal_D,
    ideal_power,
    ideal_product,
    ideal_sum,
    jacobian_ideal,
    membership_truncated,
    milnor_number,
    quadratic_rank,
)
from lctlab.polyring import Polynomial, parse_poly, poly_to_string


def P(text, nvars):
    return parse_poly(text, nvars)


def gens_strings(a):
    return [poly_to_string(g) for g in a.gens]


# ---------------------------------------------------------------- jacobian_ideal


def test_jacobian_diagonal():
    J = jacobian_ideal(P("x^3 + y^3", 2))
    assert gens_strings(J) == ["3*x1^2", "3*x2^2"]


def test_jacobian_two_by_two_determinant():
    J = jacobian_ideal(P("x1*x4 - x2*x3", 4))
    assert gens_strings(J) == ["x4", "-x3", "-x2", "x1"]


def test_jacobian_linear_form_gives_unit():
    J = jacobian_ideal(P("x", 2))
    assert J.gens[0] == Polynomial.constant(2, 1)
    with pytest.raises(ValueError):
        jacobian_ideal(Polynomial.zero(2))


# ---------------------------------------------------------------- ideal_D


def test_ideal_D_principal_is_f_plus_jacobian():
    f = P("x^2 + y^3", 2)
    D = ideal_D(IdealGens(2, [f]))
    assert [g.terms for g in D.gens] == [
        f.terms,
        P("2*x", 2).terms,
        P("3*y^2", 2).terms,
    ]


def test_ideal_D_prunes_monomials():
    D = ideal_D(IdealGens(2, [P("x^3", 2), P("y^3", 2)]))
    assert gens_strings(D) == ["3*x1^2", "3*x2^2"]
    D = ideal_D(IdealGens(2, [P("x*y", 2)]))
    assert gens_strings(D) == ["x1", "x2"]


def test_ideal_D_is_a_closure_operation_on_monomials():
    # adding the squared derived ideal then deriving again changes nothing
    corpus = [
        IdealGens(2, [P("x^3", 2), P("y^3", 2)]),
        IdealGens(2, [P("x^2*y^2", 2)]),
        IdealGens(1, [P("x^4", 1)]),
        IdealGens(2, [P("x^5", 2), P("y^2", 2)]),
        IdealGens(3, [P("x1^4", 3), P("x2^4", 3), P("x3^4", 3)]),
    ]
    for a in corpus:
        closure = ideal_sum(a, ideal_power(ideal_D(a), 2))
        lhs = {next(iter(g.terms)) for g in ideal_D(closure).gens}
        rhs = {next(iter(g.terms)) for g in ideal_D(a).gens}
        assert lhs == rhs, str(a)


# ---------------------------------------------------------------- products and sums


def test_product_and_sum_examples():
    x = IdealGens(2, [P("x", 2)])
    y = IdealGens(2, [P("y", 2)])
    assert gens_strings(ideal_product(x, y)) == ["x1*x2"]
    J2 = ideal_power(jacobian_ideal(P("x^3+y^3", 2)), 2)
    assert gens_strings(J2) == ["9*x1^4", "9*x1^2*x2^2", "9*x2^4"]
    s = ideal_sum(
        IdealGens(2, [P("x^3", 2), P("y^3", 2)]), IdealGens(2, [P("x^2*y^2", 2)])
    )
    assert gens_strings(s) == ["x1^3", "x2^3", "x1^2*x2^2"]


# ---------------------------------------------------------------- membership


def test_membership_witness_simple():
    w = membership_truncated(P("x^4", 1), IdealGens(1, [P("x^2", 1)]), 8)
    assert isinstance(w, MembershipWitness)
    assert w.verify()
    assert w.coefficients[0].poly == P("x^2", 1)


def test_membership_degree_obstruction():
    res = membership_truncated(P("x", 1), IdealGens(1, [P("x^2", 1)]), 4)
    assert isinstance(res, NotMember)
    assert res.order == 4


def test_membership_in_jacobian_square():
    J2 = ideal_power(jacobian_ideal(P("x^3+y^3", 2)), 2)
    w = membership_truncated(P("x^2*y^2", 2), J2, 10)
    assert isinstance(w, MembershipWitness)
    assert w.verify()
    # the cross generator is 9 x^2 y^2, so the coefficient is 1/9
    assert w.coefficients[1].poly == Polynomial.constant(2, Fraction(1, 9))


def test_membership_min_degree_constraint():
    a = IdealGens(1, [P("x^2", 1)])
    w = membership_truncated(P("x^3", 1), a, 8, min_degree=1)
    assert isinstance(w, MembershipWitness) and w.verify()
    res = membership_truncated(P("x^2", 1), a, 8, min_degree=1)
    assert isinstance(res, NotMember)


def test_zero_generator_is_passed_over():
    # a partial in a variable f does not involve is 0, so J_f can list 0
    a = IdealGens(2, [P("x^2", 2), P("0", 2), P("y^3", 2)])
    assert a.exponents() == [(2, 0), (0, 3)]
    w = membership_truncated(P("x^3 + x*y^3", 2), a, 6)
    assert w.verify()
    assert [c.poly for c in w.coefficients] == [P("x", 2), Polynomial.zero(2), P("x", 2)]


def test_membership_check_survives_optimized_mode():
    # python -O strips assert statements; the witness check must still raise
    script = (
        "import lctlab.jacobian as J\n"
        "from lctlab.polyring import parse_poly\n"
        "J.MembershipWitness.verify = lambda self: False\n"
        "try:\n"
        "    J.membership_truncated(parse_poly('x^4', 1), J.IdealGens(1, [parse_poly('x^2', 1)]), 8)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lctlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 0


# the J_f^2 memberships of the ``ideals`` benchmark (three members and a
# non-member per seed) and the two monomial memberships of ``absorb``, at
# seeds 1-3: (workload, seed, nvars, order, f, g, SHA-256 of the witness
# coefficients' repr, or of the NotMember's).  The digests were taken while
# pivots went to the entry of smallest bit length; a target in the span of
# the rows that raise the rank is a unique combination of them, so the pivot
# rule cannot move a witness.
_PINNED_MEMBERSHIPS = [
    (
        "ideals", 1, 2, 10, "x*y^2 - x^2*y - x^3 - x^2*y^2 + x^3*y",
        "4*x^3*y^2 - 4*x^4*y + x^5 - x*y^5 + 4*x^2*y^4 + 2*x^3*y^3 - 20*x^4*y^2 - x^5*y "
        "- 2*x^6 + 4*x^2*y^5 - 14*x^3*y^4 + 22*x^5*y^2 - 4*x^6*y + x^7 - 4*x^3*y^5 "
        "+ 12*x^4*y^4 - 9*x^5*y^3",
        "7663c9a3cbd831e680538da5ab09472a1474352a4e9aa26328697e0ccf0efab1",
    ),
    (
        "ideals", 1, 2, 10, "x*y^2 - x^2*y - x^3 - x^2*y^2 + x^3*y",
        "-x^2 + 4*x^3*y^2 - 4*x^4*y + x^5 - x*y^5 + 4*x^2*y^4 + 2*x^3*y^3 - 20*x^4*y^2 "
        "- x^5*y - 2*x^6 + 4*x^2*y^5 - 14*x^3*y^4 + 22*x^5*y^2 - 4*x^6*y + x^7 - 4*x^3*y^5 "
        "+ 12*x^4*y^4 - 9*x^5*y^3",
        "9e2aa3b865ee8040c21bd88879468720dfc654d9887bf6190d6352da0c74a999",
    ),
    (
        "ideals", 1, 2, 11, "-x*y^2 + x^3 - y^4 - x*y^3 + x^4",
        "-y^5 + 6*x^2*y^3 - 9*x^4*y - 2*y^6 + 6*x^2*y^4 + 8*x^3*y^3 - 24*x^5*y - y^7 "
        "+ 8*x^3*y^4 - 16*x^6*y",
        "61040723384a2bc7dedac3ee923f8044c78cdb39f9f49ebf8ff1b4acbdcdf9c5",
    ),
    (
        "ideals", 1, 3, 8, "-x*y^2 + x^3 + x*y*z^2 - x^2*z^2 + x^3*y",
        "-y^4 + 6*x^2*y^2 - 9*x^4 + 2*y^3*z^2 - 4*x*y^2*z^2 - 6*x^2*y*z^2 + 6*x^2*y^3 "
        "+ 12*x^3*z^2 - 18*x^4*y - y^2*z^4 + 4*x*y*z^4 + 2*x*y^4*z - 4*x^2*z^4 "
        "- 6*x^2*y^2*z^2 + 12*x^3*y*z^2 - 6*x^3*y^2*z - 9*x^4*y^2 - 3*x*y^3*z^3 "
        "+ 4*x^2*y^2*z^3 + 3*x^3*y*z^3 - 7*x^3*y^3*z + 3*x^5*y*z + x*y^2*z^5 - 2*x^2*y*z^5 "
        "+ 4*x^3*y^2*z^3 - 2*x^4*y*z^3 + 3*x^5*y^2*z",
        "cf1f18fe486c272a76ddc217da12f0f0c6676c3594371cf786866acfb7ae9008",
    ),
    (
        "ideals", 2, 2, 10, "x*y^2 - x^2*y - x^3 + x^2*y^2 - x^3*y",
        "-4*x^3*y^2 + 4*x^4*y - x^5 - x*y^5 + 4*x^2*y^4 + 2*x^3*y^3 - 20*x^4*y^2 - x^5*y "
        "- 2*x^6 - 4*x^2*y^5 + 14*x^3*y^4 - 22*x^5*y^2 + 4*x^6*y - x^7 - 4*x^3*y^5 "
        "+ 12*x^4*y^4 - 9*x^5*y^3",
        "c8a9347056fede1723b0a1781943716d2fb0dbbe880e8e532c3123670cf3281c",
    ),
    (
        "ideals", 2, 2, 10, "x*y^2 - x^2*y - x^3 + x^2*y^2 - x^3*y",
        "x^2 - 4*x^3*y^2 + 4*x^4*y - x^5 - x*y^5 + 4*x^2*y^4 + 2*x^3*y^3 - 20*x^4*y^2 "
        "- x^5*y - 2*x^6 - 4*x^2*y^5 + 14*x^3*y^4 - 22*x^5*y^2 + 4*x^6*y - x^7 - 4*x^3*y^5 "
        "+ 12*x^4*y^4 - 9*x^5*y^3",
        "9e2aa3b865ee8040c21bd88879468720dfc654d9887bf6190d6352da0c74a999",
    ),
    (
        "ideals", 2, 2, 11, "x*y^2 + x^3 + y^4 - x*y^3 - x^4",
        "-y^5 - 6*x^2*y^3 - 9*x^4*y + 2*y^6 + 6*x^2*y^4 + 8*x^3*y^3 + 24*x^5*y - y^7 "
        "- 8*x^3*y^4 - 16*x^6*y",
        "61040723384a2bc7dedac3ee923f8044c78cdb39f9f49ebf8ff1b4acbdcdf9c5",
    ),
    (
        "ideals", 2, 3, 8, "-x*y^2 + x^3 + x*y*z^2 + x^2*z^2 + x^3*y",
        "y^4 - 6*x^2*y^2 + 9*x^4 - 2*y^3*z^2 - 4*x*y^2*z^2 + 6*x^2*y*z^2 - 6*x^2*y^3 "
        "+ 12*x^3*z^2 + 18*x^4*y + y^2*z^4 + 4*x*y*z^4 - 2*x*y^4*z + 4*x^2*z^4 "
        "+ 6*x^2*y^2*z^2 + 12*x^3*y*z^2 + 6*x^3*y^2*z + 9*x^4*y^2 + 3*x*y^3*z^3 "
        "+ 4*x^2*y^2*z^3 - 3*x^3*y*z^3 + 7*x^3*y^3*z - 3*x^5*y*z - x*y^2*z^5 - 2*x^2*y*z^5 "
        "- 4*x^3*y^2*z^3 - 2*x^4*y*z^3 - 3*x^5*y^2*z",
        "d3bb235849b54aa7efc4b8014a125dfe7d49a98e40aaaef07a53a9e5cfe96d80",
    ),
    (
        "ideals", 3, 2, 10, "x*y^2 + x^2*y - x^3 + x^2*y^2 + x^3*y",
        "4*x^3*y^2 + 4*x^4*y + x^5 + x*y^5 + 4*x^2*y^4 - 2*x^3*y^3 - 4*x^4*y^2 + 17*x^5*y "
        "+ 2*x^6 + 4*x^2*y^5 + 14*x^3*y^4 - 14*x^5*y^2 + 4*x^6*y + x^7 + 4*x^3*y^5 "
        "+ 12*x^4*y^4 + 9*x^5*y^3",
        "a9823e5ee5a2945303e94577112ef032be2fbd24b9e3dd85c147a0f3b3eb3e78",
    ),
    (
        "ideals", 3, 2, 10, "x*y^2 + x^2*y - x^3 + x^2*y^2 + x^3*y",
        "x^2 + 4*x^3*y^2 + 4*x^4*y + x^5 + x*y^5 + 4*x^2*y^4 - 2*x^3*y^3 - 4*x^4*y^2 "
        "+ 17*x^5*y + 2*x^6 + 4*x^2*y^5 + 14*x^3*y^4 - 14*x^5*y^2 + 4*x^6*y + x^7 "
        "+ 4*x^3*y^5 + 12*x^4*y^4 + 9*x^5*y^3",
        "9e2aa3b865ee8040c21bd88879468720dfc654d9887bf6190d6352da0c74a999",
    ),
    (
        "ideals", 3, 2, 11, "x*y^2 - x^3 + y^4 - x*y^3 - x^4",
        "y^5 - 6*x^2*y^3 + 9*x^4*y - 2*y^6 + 6*x^2*y^4 - 8*x^3*y^3 + 24*x^5*y + y^7 "
        "+ 8*x^3*y^4 + 16*x^6*y",
        "64d485566098ca996d1fda704b65d05d72f364f7490bb7cf18fa51622bf4793d",
    ),
    (
        "ideals", 3, 3, 8, "-x*y^2 - x^3 + x*y*z^2 + x^2*z^2 + x^3*y",
        "-y^4 - 6*x^2*y^2 - 9*x^4 + 2*y^3*z^2 + 4*x*y^2*z^2 + 6*x^2*y*z^2 + 6*x^2*y^3 "
        "+ 12*x^3*z^2 + 18*x^4*y - y^2*z^4 - 4*x*y*z^4 + 2*x*y^4*z - 4*x^2*z^4 "
        "- 6*x^2*y^2*z^2 - 12*x^3*y*z^2 + 6*x^3*y^2*z - 9*x^4*y^2 - 3*x*y^3*z^3 "
        "- 4*x^2*y^2*z^3 - 3*x^3*y*z^3 - 7*x^3*y^3*z - 3*x^5*y*z + x*y^2*z^5 + 2*x^2*y*z^5 "
        "+ 4*x^3*y^2*z^3 + 2*x^4*y*z^3 + 3*x^5*y^2*z",
        "cf1f18fe486c272a76ddc217da12f0f0c6676c3594371cf786866acfb7ae9008",
    ),
    (
        "absorb", 1, 2, 12, "x^3+y^3",
        "-9*x^2*y^2 - 9*x^4 - 9*y^5",
        "f89ffaa16ec1fb1d3d9d7e2e526494f0a4e546226f398d4cf94848ff8ff24bc4",
    ),
    (
        "absorb", 1, 2, 14, "x^3+y^4",
        "-9*x^4 - 12*x^3*y^3 + 16*y^7",
        "24d1475b2f45b85a0e288a6c3c7e0df859d5051702e60de917d31d842aa1e662",
    ),
    (
        "absorb", 2, 2, 12, "x^3+y^3",
        "-9*x^2*y^2 - 9*x^4 + 9*y^5",
        "5faa9be26790bc21f1fcab232ceae332011c2d2c5f8852308b4a6837b0c8c1e0",
    ),
    (
        "absorb", 2, 2, 14, "x^3+y^4",
        "9*x^4 + 12*x^3*y^3 - 16*y^7",
        "e592370d2aa2b0842fc0494adb916a6f7e40f5f77f93c09483a4fb48f5d6c511",
    ),
    (
        "absorb", 3, 2, 12, "x^3+y^3",
        "-9*x^2*y^2 - 9*x^4 + 9*y^5",
        "5faa9be26790bc21f1fcab232ceae332011c2d2c5f8852308b4a6837b0c8c1e0",
    ),
    (
        "absorb", 3, 2, 14, "x^3+y^4",
        "9*x^4 - 12*x^3*y^3 + 16*y^7",
        "79a797682fc25b37c542c6d5cf25797e26c0951dfe36b6a036b0b6ea6ef76409",
    ),
]


@pytest.mark.parametrize(
    "workload, seed, n, order, f_text, g_text, digest",
    _PINNED_MEMBERSHIPS,
    ids=[f"{w}-seed{seed}-{k}" for k, (w, seed, *_) in enumerate(_PINNED_MEMBERSHIPS)],
)
def test_membership_witness_digest_is_pinned(workload, seed, n, order, f_text, g_text, digest):
    import hashlib

    jf2 = ideal_power(jacobian_ideal(P(f_text, n)), 2)
    got = membership_truncated(P(g_text, n), jf2, order)
    text = repr(got) if isinstance(got, NotMember) else repr(got.coefficients)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_jacobian_stability_under_square_perturbation():
    # each partial of f+g is in J_f at truncated order, and conversely
    f = P("x^3 + y^3 + x^2*y", 2)
    Jf = jacobian_ideal(f)
    g = P("x^2*y^2", 2)  # in J_f^2 up to the witness above times units
    order = 8
    fg = f + g
    Jfg = jacobian_ideal(fg)
    for dg in Jfg.gens:
        assert isinstance(membership_truncated(dg, Jf, order - 2), MembershipWitness)
    for df in Jf.gens:
        assert isinstance(membership_truncated(df, Jfg, order - 2), MembershipWitness)


# ---------------------------------------------------------------- quadratic rank


def test_quadratic_rank_examples():
    assert quadratic_rank(P("x^2 + y^2", 2)) == 2
    assert quadratic_rank(P("x*y", 2)) == 2
    assert quadratic_rank(P("x^3", 2)) == 0
    with pytest.raises(ValueError):
        quadratic_rank(P("x + x^2", 2))


def test_quadratic_rank_invariant_under_linear_change():
    from lctlab.equiv import CoordinateMap

    rng = random.Random(5)
    f = P("x^2 + 3*x*y - y^2 + x^3", 2)
    base = quadratic_rank(f)
    for _ in range(5):
        while True:
            mat = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] != 0:
                break
        cmap = CoordinateMap.linear(mat, 10)
        assert quadratic_rank(cmap.apply(f).poly) == base


# ---------------------------------------------------------------- Milnor numbers


def test_milnor_basic_values():
    assert milnor_number(P("x^2 + y^2", 2)) == 1
    assert milnor_number(P("x^3 + y^3", 2)) == 4
    assert milnor_number(P("x^2 + y^3", 2)) == 2  # quotient basis {1, y}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_milnor_homogeneous_grid(n, d):
    f = Polynomial.zero(n)
    for i in range(1, n + 1):
        f = f + Polynomial.variable(n, i) ** d
    assert milnor_number(f) == (d - 1) ** n


def test_milnor_non_isolated():
    assert isinstance(milnor_number(P("x^2*y^2", 2)), NonIsolated)


@pytest.mark.parametrize("text,nvars", [("2*x^3 - 3*y^3", 3), ("x^3 + y^4", 3), ("y^2", 2)])
def test_milnor_zero_partial_is_non_isolated_without_colengths(text, nvars, monkeypatch):
    def refuse(f):
        raise AssertionError("no colength is needed once a partial is zero")

    monkeypatch.setattr(lctlab.jacobian, "_colengths", refuse)
    mu = milnor_number(P(text, nvars))
    assert mu == NonIsolated()
    assert repr(mu) == "NonIsolated"


def test_milnor_preconditions():
    with pytest.raises(ValueError):
        milnor_number(Polynomial.zero(2))
    with pytest.raises(ValueError):
        milnor_number(P("1 + x^2", 2))
    with pytest.raises(ValueError):
        milnor_number(P("x + y^2", 2))


def test_milnor_inequality_reports():
    rep = check_milnor_inequality(P("x^2 + y^2", 2), Fraction(2, 2))
    assert rep.value == 1 and rep.bound == 1 and rep.equality
    rep = check_milnor_inequality(P("x^3 + y^3", 2), Fraction(2, 3))
    assert rep.value == Fraction(16, 9) and rep.holds and not rep.equality
    f3 = P("x1^4 + x2^4 + x3^4", 3)
    rep = check_milnor_inequality(f3, Fraction(3, 4))
    assert rep.value == Fraction(729, 64) and rep.bound == Fraction(27, 8)
    assert rep.holds


def _brieskorn_pham_grid():
    """x1^a1 + ... + xn^an with seeded unit coefficients, mu = prod(a_i - 1):
    a seeded draw of exponents <= 14 in two variables, <= 10 in three and
    <= 6 in four, and four germs whose colength keeps growing for more than
    five orders past twice their degree before it stabilises."""
    rng = random.Random(2121)
    exps = [
        tuple(rng.randint(2, top) for _ in range(n))
        for n, top in ((2, 14), (3, 10), (4, 6))
        for _ in range(4)
    ]
    exps += [(10, 10, 10), (6, 6, 6, 6), (7, 7, 7, 7), (5, 5, 5, 5, 5)]
    grid = []
    for a in exps:
        n = len(a)
        terms = {}
        for i, e in enumerate(a):
            mono = tuple(e if k == i else 0 for k in range(n))
            terms[mono] = rng.choice((-3, -1, 1, 2, Fraction(1, 2)))
        grid.append((a, Polynomial(n, terms)))
    return grid


_BP_GRID = _brieskorn_pham_grid()


@pytest.mark.parametrize("a, f", _BP_GRID, ids=["-".join(map(str, a)) for a, _ in _BP_GRID])
def test_milnor_brieskorn_pham_grid(a, f):
    assert milnor_number(f) == math.prod(e - 1 for e in a)


@pytest.mark.parametrize(
    "text, n",
    [
        ("x^2*y^2", 2),
        ("x^2*y^2 + z^2", 3),
        ("x*y*z", 3),
        ("(x^2 - y^3)^2", 2),
        ("(x^2 - y^3)^2 + z^2", 3),
        ("x^2*y^2 + z^20", 3),
        ("x^3 + y^4", 3),
    ],
)
def test_non_isolated_germs_carry_a_certificate_that_rechecks(text, n):
    from lctlab.jacobian import _colength
    from lctlab.polyring import partial_derivative

    f = P(text, n)
    mu = milnor_number(f)
    assert isinstance(mu, NonIsolated)
    partials = [partial_derivative(f, i) for i in range(1, n + 1)]
    if mu.certificate[0] == "zero partial":
        assert partials[mu.certificate[1] - 1].is_zero()
        return
    order, colength, bound = mu.certificate
    assert bound == math.prod(p.total_degree() for p in partials)
    assert colength > bound
    assert _colength(f, order) == colength == _colength_oracle(f, order)


def test_isolated_germs_stay_within_the_bezout_bound():
    # colength(J_f + m^N) <= mu <= prod deg(d_i f) on isolated germs, which
    # is what lets a colength above the bound certify a non-isolated one
    from lctlab.jacobian import _colength
    from lctlab.polyring import partial_derivative

    germs = [P(text, n) for text, n in IDEALS_GERMS[:-1]] + [f for _, f in _BP_GRID[:12]]
    germs.append(P("x^5 + y^5 + z^5 + x^2*y^2*z", 3))
    for f in germs:
        n = f.nvars
        bound = math.prod(partial_derivative(f, i).total_degree() for i in range(1, n + 1))
        mu = milnor_number(f)
        assert isinstance(mu, int) and mu <= bound
        assert _colength(f, 2 * f.total_degree()) <= mu


def test_milnor_offers_every_row_once(monkeypatch):
    # one elimination across orders: the rows offered up to the order that
    # returned are those of one truncation at that order, each once
    import lctlab.jacobian as J
    from lctlab.polyring import partial_derivative

    f = P("x^5 + y^5 + z^5 + x^2*y^2*z", 3)
    last = next(N for N in range(3, 64) if J._colength(f, N) == J._colength(f, N - 1))
    partials = [partial_derivative(f, i) for i in range(1, 4)]
    _, rows = J._truncated_multiples(3, partials, last)
    want = sum(1 for _ in rows)
    offered = []
    add_row = J.SparseEliminator.add_row

    def counting(self, row, tag=None):
        offered.append(row)
        return add_row(self, row, tag)

    monkeypatch.setattr(J.SparseEliminator, "add_row", counting)
    assert milnor_number(f) == 64
    assert len(offered) == want


def test_milnor_inconclusive_at_the_cap():
    assert milnor_number(P("x^10 + y^10 + z^10", 3), order_cap=12) == Inconclusive(12)


# ---------------------------------------------------------------- one row source, one pruning rule


def _colength_oracle(f, order):
    """The per-monomial colength loop that ``_colength`` replaced, with
    tuple column keys."""
    from lctlab.linalg import SparseEliminator
    from lctlab.polyring import monomials_below, partial_derivative

    n = f.nvars
    partials = [partial_derivative(f, i) for i in range(1, n + 1)]
    elim = SparseEliminator()
    nmons = 0
    for mono in monomials_below((1,) * n, order):
        nmons += 1
        for p in partials:
            if p.is_zero():
                continue
            if sum(mono) + p.multiplicity() >= order:
                continue
            row = {}
            for m, c in p.terms.items():
                s = tuple(map(int.__add__, m, mono))
                if sum(s) < order:
                    row[s] = c
            if row:
                elim.add_row(row)
    return nmons - elim.rank


def _prune_monomial_oracle(gens):
    """The pruning helper that ``_ideal`` replaced."""
    first_seen = {}
    for g in gens:
        if g.is_zero():
            continue
        (mono,) = g.terms
        first_seen.setdefault(mono, g)
    monos = set(first_seen)
    keep = [
        m for m in monos
        if not any(o != m and all(x <= y for x, y in zip(o, m)) for o in monos)
    ]
    keep.sort(key=lambda m: (sum(m), tuple(reversed(m))))
    return [first_seen[m] for m in keep]


# the weighted-homogeneous germs of the ``ideals`` benchmark, and its
# non-isolated x^3 + y^3 in three variables, each term scaled by a seeded unit
IDEALS_GERMS = [
    ("x^2*y+y^4", 2), ("x^4+y^6", 2), ("x^3*y+y^5", 2), ("x^5+y^7", 2),
    ("x^3+y^7", 2), ("x^2*y+y^5+z^5", 3), ("x^3+y^4+z^5", 3), ("x^3+y^3+z^3", 3),
    ("x^3+y^3+z^3+w^3", 4), ("x^2+y^3+z^4+w^5", 4), ("x^3+y^3", 3),
]


def _seeded_germs():
    rng = random.Random(15)
    germs = []
    for n in (1, 2, 2, 3, 3, 4):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = [0] * n
            for _ in range(rng.randint(2, 5)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
        germs.append(Polynomial(n, terms))
    # x3 does not occur, so the third partial vanishes identically
    germs.append(P("x^3 + x*y^2 - 2*y^4", 3))
    return germs


@pytest.mark.parametrize("text,n", IDEALS_GERMS)
def test_colength_agrees_with_the_per_monomial_loop_on_ideals_germs(text, n):
    from lctlab.jacobian import _colength

    rng = random.Random(text)
    f = Polynomial(n, {m: c * rng.choice((-3, -2, -1, 1, 2, 3)) for m, c in P(text, n).terms.items()})
    assert [_colength(f, N) for N in range(2, 12)] == [_colength_oracle(f, N) for N in range(2, 12)]


@pytest.mark.parametrize("case", range(len(_seeded_germs())))
def test_colength_agrees_with_the_per_monomial_loop_on_seeded_germs(case):
    from lctlab.jacobian import _colength

    f = _seeded_germs()[case]
    if f.multiplicity() < 2:
        f = f * Polynomial.variable(f.nvars, 1)
    assert [_colength(f, N) for N in range(2, 12)] == [_colength_oracle(f, N) for N in range(2, 12)]


def test_seeded_germs_include_an_identically_zero_partial():
    from lctlab.polyring import partial_derivative

    assert any(
        partial_derivative(f, i).is_zero() for f in _seeded_germs() for i in range(1, f.nvars + 1)
    )


def _seeded_monomial_lists():
    rng = random.Random(1515)
    lists = []
    for _ in range(60):
        n = rng.randint(1, 3)
        monos = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        monos += rng.sample(monos, k=min(2, len(monos)))  # repeats
        gens = []
        for mono in monos:
            if rng.random() < 0.15:
                gens.append(Polynomial.zero(n))
            gens.append(Polynomial(n, {mono: rng.choice([-2, 1, 3, Fraction(1, 3)])}))
        rng.shuffle(gens)
        lists.append((n, gens))
    return lists


def test_ideal_prunes_like_the_replaced_helper():
    from lctlab.jacobian import _ideal

    seen_repeat = seen_zero = False
    for n, gens in _seeded_monomial_lists():
        got = _ideal(n, gens).gens
        want = _prune_monomial_oracle(gens)
        assert [g.terms for g in got] == [g.terms for g in want]
        assert [list(g.terms.values()) for g in got] == [list(g.terms.values()) for g in want]
        monos = [next(iter(g.terms)) for g in gens if not g.is_zero()]
        seen_repeat |= len(set(monos)) < len(monos)
        seen_zero |= any(g.is_zero() for g in gens)
    assert seen_repeat and seen_zero


def test_ideal_constructors_prune_like_the_replaced_helper():
    from lctlab.polyring import partial_derivative

    for n, gens in _seeded_monomial_lists():
        nonzero = [g for g in gens if not g.is_zero()]
        if not nonzero:
            continue
        a = IdealGens(n, gens)
        b = IdealGens(n, nonzero[::-1])
        assert ideal_sum(a, b).gens == tuple(_prune_monomial_oracle(list(a.gens) + list(b.gens)))
        prods = [g * h for g in a.gens for h in b.gens]
        assert ideal_product(a, b).gens == tuple(_prune_monomial_oracle(prods))
        derived = [partial_derivative(g, i) for g in b.gens for i in range(1, n + 1)]
        assert ideal_D(b).gens == tuple(_prune_monomial_oracle(list(b.gens) + derived))


def test_ideal_keeps_non_monomial_lists_and_refuses_all_zero_ones():
    from lctlab.jacobian import _ideal

    gens = [P("x^2 + y", 2), P("x^2", 2), P("x^2", 2)]
    assert _ideal(2, gens).gens == tuple(gens)
    with pytest.raises(ValueError):
        _ideal(2, [Polynomial.zero(2)])


def test_minimal_monomials_agree_with_the_quadratic_rule():
    from lctlab.jacobian import _minimal_monomials
    from oracles import minimal_monomials_quadratic

    rng = random.Random(2323)
    seen_repeat = seen_divisible = False
    for _ in range(400):
        n = rng.randint(1, 4)
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 12))]
        base = rng.choice(exps)
        exps.append(tuple(x + rng.randint(0, 2) for x in base))  # divisible by base
        exps += rng.sample(exps, k=min(3, len(exps)))  # repeats
        rng.shuffle(exps)
        want = minimal_monomials_quadratic(exps)
        assert _minimal_monomials(exps) == want, exps
        seen_repeat |= len(set(exps)) < len(exps)
        seen_divisible |= len(want) < len(set(exps))
    assert seen_repeat and seen_divisible


def test_minimal_monomials_match_the_threshold_filter():
    from lctlab.jacobian import _minimal_monomials

    for _, gens in _seeded_monomial_lists():
        exps = [next(iter(g.terms)) for g in gens if not g.is_zero()]
        distinct = set(exps)
        want = sorted(
            v for v in distinct
            if not any(u != v and all(x <= y for x, y in zip(u, v)) for u in distinct)
        )
        got = _minimal_monomials(exps)
        assert sorted(got) == want and len(got) == len(set(got))
