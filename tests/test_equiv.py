"""Coordinate maps, morsification, and the absorption iterations."""

import random
from fractions import Fraction

import pytest

from lctlab.equiv import (
    CoordinateMap,
    RankDropError,
    formal_equiv_rank2,
    morsify,
    split_form,
    tougeron,
    verify_map,
)
from lctlab.jacobian import (
    IdealGens,
    MembershipWitness,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
)
from lctlab.polyring import (
    Polynomial,
    TruncatedSeries,
    parse_poly,
)


def P(text, nvars):
    return parse_poly(text, nvars)


def jf2_witness(f, g, order):
    w = membership_truncated(g, ideal_power(jacobian_ideal(f), 2), order)
    assert isinstance(w, MembershipWitness), f"no witness for {g}"
    return w


def make_witness(f, coeff_polys, order):
    """Build g = sum(coeff * generator) with a witness that verifies."""
    jf2 = ideal_power(jacobian_ideal(f), 2)
    assert len(coeff_polys) == len(jf2.gens)
    g = Polynomial.zero(f.nvars)
    for c, gen in zip(coeff_polys, jf2.gens):
        g = g + c * gen
    wit = MembershipWitness(
        g.truncate(order),
        jf2,
        [TruncatedSeries(c, order) for c in coeff_polys],
        order,
    )
    assert wit.verify()
    return wit, g


# ---------------------------------------------------------------- coordinate maps


def test_map_requires_unit_jacobian():
    with pytest.raises(ValueError):
        CoordinateMap([P("x^2", 2), P("y", 2)], 6)
    with pytest.raises(ValueError):
        CoordinateMap([P("1+x", 1)], 6)


def test_map_composition_order():
    # first square the germ's variable, then shift it
    sq = CoordinateMap([P("x + x^2", 1)], 8)
    shift = CoordinateMap([P("x + x^3", 1)], 8)
    composed = sq.then(shift)
    direct = substitute_after = shift.apply(sq.apply(P("x", 1)).poly).poly
    assert composed.apply(P("x", 1)).poly == direct


def test_map_inversion_round_trip():
    cmap = CoordinateMap([P("x + x^2 + y^3", 2), P("y - x*y", 2)], 10)
    inv = cmap.invert()
    both = cmap.then(inv)
    for i, im in enumerate(both.images, start=1):
        assert im.poly == Polynomial.variable(2, i)


def test_verify_map_examples():
    ident = CoordinateMap.identity(1, 8)
    assert verify_map(P("x^2", 1), TruncatedSeries(P("x^2", 1), 8), ident) == (
        True,
        None,
    )
    ok, deg = verify_map(P("x^2", 1), TruncatedSeries(P("x^2+x^3", 1), 8), ident)
    assert not ok and deg == 3


# ---------------------------------------------------------------- morsify


def test_morsify_completing_the_square():
    f = P("x^2 + x*y^2", 2)
    res = morsify(f, 8)
    assert res.diag_coeffs == [1]
    assert res.residual.poly == P("-1/4*y^4", 2)
    ok, _ = verify_map(f, res.normal_form(), res.map, 8)
    assert ok


def test_morsify_already_split():
    res = morsify(P("x^2 + y^2", 2), 8)
    assert res.diag_coeffs == [1, 1]
    assert res.residual.is_zero()


def test_morsify_hyperbolic_block():
    f = P("x*y + y^3", 2)
    res = morsify(f, 8)
    assert len(res.diag_coeffs) == 2  # full rank
    assert res.residual.is_zero()  # Morse point
    ok, _ = verify_map(f, res.normal_form(), res.map, 8)
    assert ok
    assert res.map.jacobian_at_zero() != 0


def test_morsify_keeps_quadratic_rank_and_verifies():
    rng = random.Random(17)
    for _ in range(6):
        n = rng.choice((2, 3))
        terms = {}
        # random multiplicity-2 germ with some rank
        terms[tuple(2 if i == 0 else 0 for i in range(n))] = rng.choice([1, 2, -1])
        for _ in range(4):
            mono = [0] * n
            for _ in range(rng.randint(2, 4)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.randint(-2, 2)
        f = Polynomial(n, terms)
        if f.multiplicity() != 2:
            continue
        res = morsify(f, 9)
        ok, bad = verify_map(f, res.normal_form(), res.map, 9)
        assert ok, (str(f), bad)
        assert all(c != 0 for c in res.diag_coeffs)
        if not res.residual.is_zero():
            assert res.residual.poly.multiplicity() >= 3


def test_morsify_rejects_wrong_multiplicity():
    with pytest.raises(ValueError):
        morsify(P("x^3", 1), 8)
    with pytest.raises(ValueError):
        morsify(P("x + x^2", 1), 8)


# ---------------------------------------------------------------- tougeron


def test_tougeron_monomial_case_with_independent_oracle():
    f = P("x^3", 1)
    w = jf2_witness(f, P("x^4", 1), 12)
    psi = tougeron(f, w, 12)
    target = TruncatedSeries(P("x^3 + x^4", 1), 12)
    assert verify_map(f, target, psi, 12) == (True, None)

    # independent oracle map: x -> x * (1 + x)^(1/3), truncated
    u = P("x", 1)
    total = Polynomial.constant(1, 1)
    upow = Polynomial.constant(1, 1)
    c = Fraction(1)
    k = 0
    while True:
        k += 1
        upow = upow.mul_truncated(u, 12)
        if upow.is_zero():
            break
        c = c * Fraction(Fraction(1, 3) - (k - 1), k)
        total = total + upow * c
    oracle = CoordinateMap([Polynomial.variable(1, 1).mul_truncated(total, 12)], 12)
    assert verify_map(f, target, oracle, 12) == (True, None)


def test_tougeron_zero_perturbation_is_identity():
    f = P("x^3 + y^3", 2)
    w = jf2_witness(f, Polynomial.zero(2), 10)
    psi = tougeron(f, w, 10)
    for i, im in enumerate(psi.images, start=1):
        assert im.poly == Polynomial.variable(2, i)


def test_tougeron_cross_term():
    f = P("x^3 + y^3", 2)
    w = jf2_witness(f, P("x^2*y^2", 2), 10)
    psi = tougeron(f, w, 10)
    target = TruncatedSeries(P("x^3 + y^3 + x^2*y^2", 2), 10)
    assert verify_map(f, target, psi, 10) == (True, None)


def test_tougeron_three_variables_with_monomial_partials():
    # the generators of J_f^2 are monomials here, which ideal_product lists
    # in degree order rather than in (i, j) pair order
    f = P("x^3 + y^3 + z^3", 3)
    g = P("x^4*y^2 + x^2*y^2*z^2 + 3*x^2*z^4", 3)
    psi = tougeron(f, jf2_witness(f, g, 8), 8)
    assert verify_map(f, TruncatedSeries(f + g, 8), psi, 8) == (True, None)


def test_tougeron_rejects_low_multiplicity_and_small_witness():
    f = P("x^2", 1)
    with pytest.raises(ValueError):
        tougeron(f, jf2_witness(P("x^3", 1), P("x^4", 1), 8), 8)
    f = P("x^3", 1)
    w = jf2_witness(f, P("x^4", 1), 6)
    with pytest.raises(ValueError):
        tougeron(f, w, 10)  # witness order too small


def test_tougeron_seeded_random_cases_verify():
    rng = random.Random(23)
    order = 10
    for _ in range(8):
        n = rng.choice((2, 3))
        terms = {}
        for _ in range(4):
            mono = [0] * n
            for _ in range(rng.randint(3, 5)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.choice([-2, -1, 1, 2])
        cube = tuple(3 if i == 0 else 0 for i in range(n))
        terms.setdefault(cube, 1)
        f = Polynomial(n, terms)
        if f.multiplicity() != 3:
            continue
        jf2 = ideal_power(jacobian_ideal(f), 2)
        coeffs = []
        for _ in jf2.gens:
            if rng.random() < 0.5:
                coeffs.append(
                    Polynomial(
                        n,
                        {tuple(rng.randint(0, 1) for _ in range(n)): rng.choice([-1, 1])},
                    )
                )
            else:
                coeffs.append(Polynomial.zero(n))
        wit, g = make_witness(f, coeffs, order)
        psi = tougeron(f, wit, order)
        assert verify_map(f, TruncatedSeries(f + g, order), psi, order) == (True, None)


# ---------------------------------------------------------------- rank-2 pipeline


def test_rank2_scaling_perturbation():
    f = P("x^2 + y^3", 2)
    res = formal_equiv_rank2(f, jf2_witness(f, P("x^2", 2), 12), 12)
    assert res.diag_coeffs == [2]
    assert res.residual.poly == P("y^3", 2)


def test_rank2_zero_perturbation():
    f = P("x^2 + y^3", 2)
    res = formal_equiv_rank2(f, jf2_witness(f, Polynomial.zero(2), 12), 12)
    assert res.diag_coeffs == [1]
    assert res.residual.poly == P("y^3", 2)


def test_rank2_residual_perturbation():
    f = P("x^2 + y^3", 2)
    g = P("y^4", 2)
    res = formal_equiv_rank2(f, jf2_witness(f, g, 12), 12)
    assert res.diag_coeffs == [1]
    assert res.residual.poly == P("y^3", 2)
    ok, bad = verify_map(f + g, res.normal_form(), res.map, 12)
    assert ok, bad


def test_rank2_rank_drop_is_reported():
    f = P("x^2 + y^3", 2)
    with pytest.raises(RankDropError) as err:
        formal_equiv_rank2(f, jf2_witness(f, P("-x^2", 2), 12), 12)
    assert err.value.rank_f == 1
    assert err.value.rank_fg == 0


def test_split_form_recognition():
    r, diag, h = split_form(P("2*x^2 - y^2 + z^3 + z^4", 3))
    assert r == 2 and diag == [2, -1] and h == P("z^3 + z^4", 3)
    with pytest.raises(ValueError):
        split_form(P("x*y + z^3", 3))  # not diagonal
    with pytest.raises(ValueError):
        split_form(P("x^2 + x^3", 1) + P("0", 1))  # higher part touches x1
