"""Coordinate maps, morsification, and the absorption iterations."""

import dataclasses
import hashlib
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
    NotMember,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
)
from lctlab.polyring import (
    Polynomial,
    TruncatedSeries,
    monomials_below,
    parse_poly,
    substitute_shifted,
)
from oracles import invert


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
    with pytest.raises(ValueError):
        CoordinateMap([], 6)


def test_map_composition_order():
    # first square the germ's variable, then shift it
    sq = CoordinateMap([P("x + x^2", 1)], 8)
    shift = CoordinateMap([P("x + x^3", 1)], 8)
    composed = sq.then(shift)
    direct = substitute_after = shift.apply(sq.apply(P("x", 1)).poly).poly
    assert composed.apply(P("x", 1)).poly == direct


def test_map_inversion_round_trip():
    cmap = CoordinateMap([P("x + x^2 + y^3", 2), P("y - x*y", 2)], 10)
    inv = invert(cmap)
    both = cmap.then(inv)
    for i, im in enumerate(both.images, start=1):
        assert im.poly == Polynomial.variable(2, i)


def _random_map(rng, n, order):
    """Unit upper-triangular linear part (identity or not) plus seeded terms
    of degree 2-4, some with Fraction coefficients."""
    images = []
    for i in range(n):
        terms = {tuple(int(k == i) for k in range(n)): 1}
        if i + 1 < n and rng.random() < 0.5:
            terms[tuple(int(k == i + 1) for k in range(n))] = rng.choice((-2, 1, Fraction(1, 3)))
        for _ in range(rng.randint(0, 3)):
            mono = [0] * n
            for _ in range(rng.randint(2, 4)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.choice((-3, -1, 1, 2, Fraction(-1, 2)))
        images.append(Polynomial(n, terms))
    return CoordinateMap(images, order)


def test_then_shares_one_power_cache_across_images():
    rng = random.Random(3301)
    non_identity = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        first, second = _random_map(rng, n, rng.randint(3, 10)), _random_map(rng, n, rng.randint(3, 10))
        order = min(first.order, second.order)
        shifts = [im.poly - Polynomial.variable(n, i + 1) for i, im in enumerate(second.images)]
        composed = first.then(second)
        assert composed.order == order
        for got, im in zip(composed.images, first.images):
            want = substitute_shifted(im.poly, shifts, order)
            assert list(got.poly.terms.items()) == list(want.poly.terms.items())
        non_identity += any(g.multiplicity() == 1 for g in shifts if not g.is_zero())
    assert non_identity >= 10


def _typed_terms(p):
    return [(m, type(c), c) for m, c in p.terms.items()]


def test_then_along_a_shift_map_reads_its_shifts():
    # the shifts a shift map keeps against the same map built from its
    # images, which keeps none and subtracts x_i back out of each image
    rng = random.Random(7717)
    seen = {"zero shift": 0, "terms at or above the order": 0, "orders differ": 0, "Fraction": 0}
    for _ in range(60):
        n = rng.randint(1, 3)
        order = rng.randint(2, 10)
        shifts = []
        for _ in range(n):
            terms = {}
            for _ in range(0 if rng.random() < 0.2 else rng.randint(1, 4)):
                mono = [0] * n
                for _ in range(rng.randint(2, 12)):
                    mono[rng.randrange(n)] += 1
                terms[tuple(mono)] = rng.choice((-3, -1, 1, 2, Fraction(-1, 2), Fraction(5, 3)))
            shifts.append(Polynomial(n, terms))
        shift_map = CoordinateMap.shift(shifts, order)
        plain = CoordinateMap([im.poly for im in shift_map.images], order)
        assert plain._shifts is None
        for i, (g, kept, im) in enumerate(zip(shifts, shift_map._shifts, plain.images), start=1):
            assert kept == g.truncate(order) == im.poly - Polynomial.variable(n, i)
        for first in (_random_map(rng, n, rng.randint(3, 10)), shift_map):
            got, want = first.then(shift_map), first.then(plain)
            assert got.order == want.order
            for a, b in zip(got.images, want.images):
                assert _typed_terms(a.poly) == _typed_terms(b.poly)
            seen["orders differ"] += first.order != order
        seen["zero shift"] += any(g.is_zero() for g in shifts)
        seen["terms at or above the order"] += any(sum(m) >= order for g in shifts for m in g.terms)
        seen["Fraction"] += any(type(c) is Fraction for g in shifts for c in g.terms.values())
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("nimages, nvars", [(2, 3), (3, 2), (5, 4)])
def test_a_map_needs_one_image_per_variable(nimages, nvars):
    images = [Polynomial.variable(nvars, 1 + k % nvars) for k in range(nimages)]
    with pytest.raises(ValueError, match=f"in {nvars} variables needs {nvars} images, got {nimages}"):
        CoordinateMap(images, 6)


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


def test_morsify_builds_a_pivot_from_a_later_off_diagonal_entry():
    # the quadratic form y*z has no diagonal entry and nothing in the x row:
    # the y column is swapped to the front and y + z gives the first pivot
    f = P("y*z + x^3", 3)
    res = morsify(f, 8)
    assert res.diag_coeffs == [1, Fraction(-1, 4)]
    assert verify_map(f, res.normal_form(), res.map, 8) == (True, None)


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


# ---------------------------------------------------------------- witness transport


def neumann_inverse(E, order):
    """(I + E)^-1 mod m^order by the Neumann series I - E + E^2 - ...

    The slow oracle for the Newton inverse: up to order + 1 full products.
    """
    n, nvars = len(E), E[0][0].nvars
    ident = [[Polynomial.constant(nvars, int(i == j)) for j in range(n)] for i in range(n)]
    x = ident
    for _ in range(order + 1):
        nxt = [[ident[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    nxt[i][j] = nxt[i][j] - E[i][k].mul_truncated(x[k][j], order)
        if nxt == x:
            break
        x = nxt
    return x


def random_matrix(rng, n, nvars, min_mult, max_deg):
    """An n x n matrix of sparse polynomials with multiplicity >= min_mult."""
    monos = [m for m in monomials_below((1,) * nvars, max_deg + 1) if sum(m) >= min_mult]
    return [
        [
            Polynomial(
                nvars,
                {
                    rng.choice(monos): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 3))
                },
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_mat_mul_is_the_truncated_matrix_product():
    from lctlab.equiv import _mat_mul

    rng = random.Random(5)
    for _ in range(20):
        n, nvars, order = rng.choice((2, 3)), rng.choice((1, 2, 3)), rng.randint(1, 8)
        X = random_matrix(rng, n, nvars, 0, 4)
        Y = random_matrix(rng, n, nvars, 0, 4)
        got = _mat_mul(X, Y, order)
        for i in range(n):
            for j in range(n):
                full = Polynomial.zero(nvars)
                for k in range(n):
                    full = full + X[i][k] * Y[k][j]
                assert got[i][j] == full.truncate(order)


def test_newton_inverse_matches_the_neumann_series():
    from lctlab.equiv import _newton_inverse

    rng = random.Random(2024)
    for _ in range(40):
        n, nvars, order = rng.choice((2, 3)), rng.choice((1, 2, 3)), rng.randint(1, 10)
        E = random_matrix(rng, n, nvars, 1, 3)
        B = _newton_inverse(E, order)
        assert B == neumann_inverse(E, order), (n, nvars, order)
        for i in range(n):
            for j in range(n):
                assert B[i][j].total_degree() < order
                prod = B[i][j]  # (I + E) * B, entry (i, j)
                for k in range(n):
                    prod = prod + E[i][k].mul_truncated(B[k][j], order)
                assert prod == Polynomial.constant(nvars, int(i == j))


_PINNED_X_ORDER12 = (
    "-38699/59049*x1^11 - 8432218/1594323*x1^10*x2 - 5913124/531441*x1^9*x2^2 - "
    "2054665/177147*x1^8*x2^3 - 6301298/531441*x1^7*x2^4 - "
    "16569541/1594323*x1^6*x2^5 - 12584816/1594323*x1^5*x2^6 - "
    "8262740/1594323*x1^4*x2^7 - 5136079/1594323*x1^3*x2^8 - "
    "299936/177147*x1^2*x2^9 - 1529599/1594323*x1*x2^10 - 615862/1594323*x2^11 - "
    "496727/531441*x1^10 - 4365970/531441*x1^9*x2 - 3014551/177147*x1^8*x2^2 - "
    "2308027/177147*x1^7*x2^3 - 2260970/177147*x1^6*x2^4 - 611450/59049*x1^5*x2^5 -"
    " 3360802/531441*x1^4*x2^6 - 2002205/531441*x1^3*x2^7 - "
    "1070251/531441*x1^2*x2^8 - 158660/177147*x1*x2^9 - 194476/531441*x2^10 - "
    "835/59049*x1^9 - 1127/6561*x1^8*x2 - 27014/59049*x1^7*x2^2 - "
    "42790/177147*x1^6*x2^3 - 56366/177147*x1^5*x2^4 - 12010/59049*x1^4*x2^5 - "
    "22834/177147*x1^3*x2^6 - 18589/177147*x1^2*x2^7 - 8650/177147*x1*x2^8 - "
    "3587/177147*x2^9 + 353/19683*x1^8 + 1202/6561*x1^7*x2 + 2027/6561*x1^6*x2^2 + "
    "2371/19683*x1^5*x2^3 + 1111/6561*x1^4*x2^4 + 748/19683*x1^3*x2^5 + "
    "997/19683*x1^2*x2^6 + 791/19683*x1*x2^7 + 32/2187*x2^8 - 151/6561*x1^7 - "
    "1270/6561*x1^6*x2 - 121/729*x1^5*x2^2 - 223/2187*x1^4*x2^3 - 89/2187*x1^3*x2^4"
    " + 77/6561*x1^2*x2^5 - 181/6561*x1*x2^6 - 56/6561*x2^7 + 22/729*x1^6 + "
    "151/729*x1^5*x2 + 5/243*x1^4*x2^2 + 89/729*x1^3*x2^3 - 1/729*x1^2*x2^4 + "
    "1/243*x2^6 - 10/243*x1^5 - 19/81*x1^4*x2 - 5/243*x1^3*x2^2 - 10/81*x1^2*x2^3 +"
    " 2/243*x1*x2^4 + 5/81*x1^4 + 1/3*x1^3*x2 + 4/81*x1^2*x2^2 - 1/81*x2^4 - "
    "1/9*x1^3 - 1/9*x1*x2^2 + 1/3*x1^2 + 1/3*x2^2 + x1"
)

_PINNED_Y_ORDER12 = (
    "14575/1594323*x1^11 + 24625/1594323*x1^10*x2 - 711583/531441*x1^9*x2^2 - "
    "6601517/1594323*x1^8*x2^3 - 6773606/1594323*x1^7*x2^4 - "
    "6073610/1594323*x1^6*x2^5 - 5498867/1594323*x1^5*x2^6 - "
    "4006679/1594323*x1^4*x2^7 - 2811394/1594323*x1^3*x2^8 - "
    "523061/531441*x1^2*x2^9 - 985144/1594323*x1*x2^10 - 574784/1594323*x2^11 - "
    "128528/531441*x1^10 - 155774/59049*x1^9*x2 - 3771794/531441*x1^8*x2^2 - "
    "1382338/177147*x1^7*x2^3 - 1252100/177147*x1^6*x2^4 - 3437194/531441*x1^5*x2^5"
    " - 845842/177147*x1^4*x2^6 - 1682308/531441*x1^3*x2^7 - "
    "992125/531441*x1^2*x2^8 - 67901/59049*x1*x2^9 - 315073/531441*x2^10 + "
    "1807/59049*x1^9 - 3557/177147*x1^8*x2 - 43501/177147*x1^7*x2^2 - "
    "3313/59049*x1^6*x2^3 - 24701/177147*x1^5*x2^4 - 15542/177147*x1^4*x2^5 - "
    "2723/177147*x1^3*x2^6 - 6673/177147*x1^2*x2^7 - 2458/59049*x1*x2^8 - "
    "203/19683*x2^9 - 203/19683*x1^8 + 2488/19683*x1^7*x2 + 3853/19683*x1^6*x2^2 + "
    "2117/19683*x1^5*x2^3 + 115/729*x1^4*x2^4 + 157/19683*x1^3*x2^5 + "
    "496/19683*x1^2*x2^6 + 794/19683*x1*x2^7 + 274/19683*x2^8 - 85/6561*x1^7 - "
    "1060/6561*x1^6*x2 - 275/2187*x1^5*x2^2 - 1084/6561*x1^4*x2^3 - "
    "152/2187*x1^3*x2^4 - 8/729*x1^2*x2^5 - 256/6561*x1*x2^6 - 121/6561*x2^7 + "
    "19/729*x1^6 + 41/243*x1^5*x2 + 95/729*x1^4*x2^2 + 83/729*x1^3*x2^3 + "
    "7/243*x1^2*x2^4 + 28/729*x1*x2^5 + 2/81*x2^6 - 10/243*x1^5 - 40/243*x1^4*x2 - "
    "17/243*x1^3*x2^2 - 11/243*x1^2*x2^3 - 10/243*x1*x2^4 - 8/243*x2^5 + 5/81*x1^4 "
    "+ 2/27*x1^3*x2 + 4/81*x1^2*x2^2 + 2/27*x1*x2^3 + 4/81*x2^4 - 1/9*x1^3 - "
    "1/9*x1*x2^2 - 1/9*x2^3 + 1/3*x2^2 + x2"
)


def test_tougeron_map_is_pinned_at_order_12():
    # the maps the Neumann-series transport produced, which every rewrite of
    # the witness transport must reproduce exactly
    f = P("x^3 + y^3", 2)
    g = P("x^4 + x^2*y^2 + y^4 + x^5*y", 2)
    psi = tougeron(f, jf2_witness(f, g, 12), 12)
    assert [str(im.poly) for im in psi.images] == [_PINNED_X_ORDER12, _PINNED_Y_ORDER12]
    assert verify_map(f, TruncatedSeries(f + g, 12), psi, 12) == (True, None)


def test_not_member_witness_is_refused_with_its_order():
    f = P("x^3 + y^3", 2)
    wit = membership_truncated(P("x^3", 2), ideal_power(jacobian_ideal(f), 2), 8)
    assert isinstance(wit, NotMember)
    with pytest.raises(ValueError, match=r"m\^8"):
        tougeron(f, wit, 8)
    f = P("x^2 + y^3", 2)
    wit = membership_truncated(P("y^3", 2), ideal_power(jacobian_ideal(f), 2), 9)
    assert isinstance(wit, NotMember)
    with pytest.raises(ValueError, match=r"m\^9"):
        formal_equiv_rank2(f, wit, 9)


def _refused_witness(kind, f, foreign, order):
    """A witness for g = x^4 (y^3 for the non-member) spoiled one way."""
    jf2 = ideal_power(jacobian_ideal(f), 2)
    if kind == "not_member":
        return membership_truncated(P("y^3", 2), jf2, order)
    if kind == "foreign_germ":
        return jf2_witness(foreign, P("x^4", 2), order)
    w = jf2_witness(f, P("x^4", 2), order)
    if kind == "reordered":
        gens = IdealGens(2, w.gens.gens[::-1])
        return MembershipWitness(w.target, gens, w.coefficients[::-1], order)
    c0 = TruncatedSeries(w.coefficients[0].poly + Polynomial.constant(2, 1), order)
    return dataclasses.replace(w, coefficients=[c0] + w.coefficients[1:])


_REFUSALS = {
    "not_member": "is not in the Jacobian-square ideal",
    "foreign_germ": "not the Jacobian-square generators",
    "reordered": "not the Jacobian-square generators",
    "tampered_coefficient": "does not re-expand",
}


@pytest.mark.parametrize("kind", list(_REFUSALS))
@pytest.mark.parametrize(
    "entry, f, foreign",
    [
        pytest.param(tougeron, "x^3 + y^3", "x^3 + y^4", id="tougeron"),
        pytest.param(formal_equiv_rank2, "x^2 + y^3", "x^2 + y^4", id="rank2"),
    ],
)
def test_spoiled_witnesses_are_refused(entry, f, foreign, kind):
    f, foreign = P(f, 2), P(foreign, 2)
    with pytest.raises(ValueError, match=_REFUSALS[kind]):
        entry(f, _refused_witness(kind, f, foreign, 8), 8)


def test_rank2_with_rank_zero_is_plain_absorption():
    f = P("x^3 + y^3", 2)
    g = P("x^4 + x^2*y^2", 2)
    res = formal_equiv_rank2(f, jf2_witness(f, g, 12), 12)
    assert res.rank == 0 and res.diag_coeffs == []
    assert res.residual.poly == f
    assert res.steps == [
        "linear diagonalization of the perturbed quadratic part",
        "absorption of the residual perturbation",
    ]
    assert verify_map(f + g, res.normal_form(), res.map, 12) == (True, None)


def test_per_step_check_catches_a_wrong_transition_inverse(monkeypatch):
    import lctlab.equiv as equiv

    def first_order_inverse(E, order):  # I - E: right mod m^2 only
        one = Polynomial.constant(E[0][0].nvars, 1)
        return [[int(i == j) * one - e for j, e in enumerate(row)] for i, row in enumerate(E)]

    monkeypatch.setattr(equiv, "_newton_inverse", first_order_inverse)
    f = P("x^3 + y^3", 2)
    w = jf2_witness(f, P("x^4 + x^2*y^2 + y^4 + x^5*y", 2), 16)
    with pytest.raises(AssertionError, match="witness lost track"):
        tougeron(f, w, 16)


# morsify and rank-2 maps as produced before the Taylor sums shared one power
# cache; regrouping exact sums must reproduce them exactly
_PINNED_MORSIFY = [
    ("x^2 + x*y^2 + y^3", 2, 10, ["-1/2*x2^2 + x1", "x2"], "-1/4*x2^4 + x2^3"),
    (
        "x^2 + y^2 + z^3 + x*y*z", 3, 8,
        [
            "-3/256*x2*x3^5 - 1/16*x2*x3^3 - 1/2*x2*x3 + x1",
            "3/128*x2*x3^4 + 1/8*x2*x3^2 + x2",
            "x3",
        ],
        "x3^3",
    ),
    (
        "x^2 + 2*x*y + 3*y^2 + x^3*y", 2, 8,
        [
            "5/16*x1^3*x2^4 - 169/64*x1^2*x2^5 + 129/16*x1*x2^6 - 603/64*x2^7 + "
            "5/8*x1^3*x2^2 - 25/8*x1^2*x2^3 + 51/8*x1*x2^4 - 205/32*x2^5 - "
            "1/2*x1^2*x2 + 3/2*x1*x2^2 - 7/4*x2^3 + x1 - x2",
            "25/32*x2^5 + 1/4*x2^3 + x2",
        ],
        "0",
    ),
]


@pytest.mark.parametrize("text,n,order,images,residual", _PINNED_MORSIFY)
def test_morsify_map_is_pinned(text, n, order, images, residual):
    res = morsify(P(text, n), order)
    assert [str(im.poly) for im in res.map.images] == images
    assert str(res.residual.poly) == residual


def test_morsify_composes_one_map_per_diagonal_variable(monkeypatch):
    # the shifts that clean one variable add up to a single map, so the only
    # compositions are the linear diagonalization with each variable's map
    calls = []
    then = CoordinateMap.then

    def counted(self, other):
        calls.append(other)
        return then(self, other)

    monkeypatch.setattr(CoordinateMap, "then", counted)
    for text, n, order, images, _ in _PINNED_MORSIFY:
        calls.clear()
        res = morsify(P(text, n), order)
        assert [str(im.poly) for im in res.map.images] == images
        assert len(calls) == len(res.diag_coeffs)


def test_rank2_map_is_pinned_at_order_8():
    f = P("x^2 + y^3", 2)
    g = P("x*y^3 + y^4 + x^2*y", 2)
    res = formal_equiv_rank2(f, jf2_witness(f, g, 8), 8)
    assert [str(im.poly) for im in res.map.images] == [
        "61721/186624*x1*x2^6 - 3169/648*x2^7 - 95573/62208*x1*x2^5 + 77/24*x2^6 + "
        "10907/10368*x1*x2^4 - 11/6*x2^5 - 35/48*x1*x2^3 + x2^4 + 13/24*x1*x2^2 - "
        "1/2*x2^3 - 1/2*x1*x2 + x1",
        "-103/324*x2^7 + 9029/2916*x2^6 + 319/972*x2^5 - 113/324*x2^4 + 1/3*x2^3 - "
        "1/3*x2^2 + x2",
    ]
    assert res.diag_coeffs == [1]
    assert verify_map(f + g, res.normal_form(), res.map, 8) == (True, None)


_X3Y3_G = ("x^3 + y^3", "x^4 + x^2*y^2 + y^4 + x^5*y", 2)
_X3Y3Z3_G = ("x^3 + y^3 + z^3", "x^4*y^2 + x^2*y^2*z^2 + 3*x^2*z^4", 3)
_PINNED_TOUGERON = [
    (12, "42f5ca8bc9a973d64fa7a974eb97743e2c5c207b3be68de36570b1095dddcbba", *_X3Y3_G),
    (16, "7583928e13783e981ca03366b7277dc19fa6e60e479ce1b68da070fb8da44a16", *_X3Y3_G),
    (24, "4cca73d2045550fb85fcc58e9b2e82c809aa1b6843ab40e99bfc9a09597a9215", *_X3Y3_G),
    (14, "8c96bdce369d347e81200f9cf20a975900ca87807a7d416ebd945dfeed54c851", "x^3 + y^4", "x^4", 2),
    (8, "de9f5b7dde3fea70ac06734ea8f1c48644548239a19b3ea687de832212ad0a18", *_X3Y3Z3_G),
    (12, "018e5dc6652b300c14eded277d7b26314bef9e8639ee686bf9a82c46b8cd57cd", *_X3Y3Z3_G),
]


@pytest.mark.parametrize(
    "order, digest, f_text, g_text, nvars",
    _PINNED_TOUGERON,
    ids=[f"{order}-{digest}" for order, digest, *_ in _PINNED_TOUGERON],
)
def test_tougeron_map_digest_is_pinned(order, digest, f_text, g_text, nvars):
    # SHA-256 of repr(map) as the tuple-monomial product loop printed it (the
    # first two) and as the absorption printed it with every step at
    # wit_order (the rest)
    f = P(f_text, nvars)
    g = P(g_text, nvars)
    psi = tougeron(f, jf2_witness(f, g, order), order)
    assert hashlib.sha256(repr(psi).encode()).hexdigest() == digest


@pytest.mark.parametrize("order", [12, 16, 24])
def test_each_transition_inverse_runs_at_its_own_precision(monkeypatch, order):
    import lctlab.equiv as equiv

    precisions = []
    newton_inverse = equiv._newton_inverse

    def recording_inverse(E, prec):
        precisions.append(prec)
        return newton_inverse(E, prec)

    monkeypatch.setattr(equiv, "_newton_inverse", recording_inverse)
    f, g = P(_X3Y3_G[0], 2), P(_X3Y3_G[1], 2)
    tougeron(f, jf2_witness(f, g, order), order)
    wit_order = order - 2 * 2  # mult(J_f) = 2
    assert len(precisions) >= 2
    assert all(a > b for a, b in zip(precisions, precisions[1:])), precisions
    assert all(p < wit_order for p in precisions), precisions


def test_orders_too_small_for_a_map_name_the_minimum():
    with pytest.raises(ValueError, match="order >= 2"):
        CoordinateMap.identity(2, 1)
    f = P("x^3 + y^3", 2)
    with pytest.raises(ValueError, match="tougeron needs order >= 2"):
        tougeron(f, jf2_witness(f, P("x^4", 2), 1), 1)
    with pytest.raises(ValueError, match="morsify needs order >= 3"):
        morsify(P("x^2 + y^3", 2), 2)
    assert morsify(P("x^2 + y^3", 2), 3).residual.is_zero()
