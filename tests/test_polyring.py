"""Polynomial core: parsing, calculus, series, and their exact identities."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctlab.polyring import (
    MultiplicityBound,
    ParseError,
    Polynomial,
    TruncatedSeries,
    divided_power,
    multiplicity,
    parse_poly,
    partial_derivative,
    poly_to_string,
    series_inverse,
    series_sqrt,
    substitute,
    substitute_shifted,
)


def P(text, nvars):
    return parse_poly(text, nvars)


# ---------------------------------------------------------------- parsing


def test_parse_zero():
    assert P("0", 2).is_zero()


def test_parse_difference_of_cubes():
    assert P("x1^3 - x2^3", 2).terms == {(3, 0): 1, (0, 3): -1}


def test_parse_binomial_square():
    assert P("(x1+x2)^2", 2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_letters_and_rationals():
    assert P("1/2*x + y^2", 2).terms == {(1, 0): Fraction(1, 2), (0, 2): 1}
    assert P("z", 3).terms == {(0, 0, 1): 1}


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        P("x1 + 3/0", 2)
    assert err.value.offset == 7
    with pytest.raises(ParseError):
        P("x3", 2)  # variable out of range
    with pytest.raises(ParseError) as err:
        P("x1 x2", 2)  # implicit multiplication
    assert "implicit" in str(err.value)
    with pytest.raises(ParseError):
        P("(x1", 1)
    with pytest.raises(ParseError):
        P("$", 1)


coeff_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
mono_st = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
poly_st = st.dictionaries(mono_st, coeff_st, max_size=6).map(
    lambda terms: Polynomial(3, terms)
)


@given(poly_st)
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(f):
    assert parse_poly(poly_to_string(f), 3) == f


# ---------------------------------------------------------------- calculus


def test_partial_derivative_examples():
    assert partial_derivative(P("x^3", 2), 1) == P("3*x^2", 2)
    assert partial_derivative(P("x*y^2", 2), 2) == P("2*x*y", 2)
    assert partial_derivative(Polynomial.constant(2, 5), 1).is_zero()
    with pytest.raises(ValueError):
        partial_derivative(P("x", 2), 3)


@given(poly_st, poly_st, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(f, g, i):
    lhs = partial_derivative(f * g, i)
    rhs = f * partial_derivative(g, i) + g * partial_derivative(f, i)
    assert lhs == rhs


def test_divided_power_examples():
    x = Polynomial.variable(1, 1)
    assert divided_power(x**3, (2,)) == 3 * x
    assert divided_power(x**2, (2,)) == Polynomial.constant(1, 1)
    assert divided_power(x**2, (3,)).is_zero()


@given(
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), coeff_st, max_size=5),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=60, deadline=None)
def test_divided_power_composition(terms, alpha, beta):
    # D^alpha . D^beta = C(alpha+beta, alpha) D^(alpha+beta)
    f = Polynomial(2, terms)
    lhs = divided_power(divided_power(f, beta), alpha)
    ab = tuple(a + b for a, b in zip(alpha, beta))
    binom = 1
    for a, s in zip(alpha, ab):
        binom *= math.comb(s, a)
    assert lhs == divided_power(f, ab) * binom


# ---------------------------------------------------------------- substitution


def test_substitute_examples():
    x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    s = substitute(x**2, [x + y, y], 4)
    assert s.poly == x**2 + 2 * x * y + y**2
    t = substitute(P("x", 1), [P("x", 1) * (1 + P("x", 1))], 3)
    assert t.poly == P("x + x^2", 1)
    with pytest.raises(ValueError):
        substitute(x, [x + 1, y], 4)  # nonzero constant term


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


def test_taylor_identity_seeded():
    rng = random.Random(1105)
    for _ in range(100):
        n = rng.choice((1, 2))
        order = rng.randint(4, 7)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 5))
        }
        f = Polynomial(n, terms)
        us, vs = [], []
        for _ in range(n):
            us.append(
                Polynomial(n, {tuple(rng.randint(0, 1) for _ in range(n)) or (1,): 0})
                + Polynomial.variable(n, rng.randint(1, n)) * rng.randint(-2, 2)
            )
            vs.append(
                Polynomial.variable(n, rng.randint(1, n)) ** rng.randint(1, 2)
                * rng.randint(-2, 2)
            )
        lhs = substitute(f, [u + v for u, v in zip(us, vs)], order).poly
        assert lhs == _taylor_rhs(f, us, vs, order)


def test_substitute_shifted_matches_generic():
    rng = random.Random(7)
    x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    for _ in range(30):
        f = Polynomial(
            2,
            {
                tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(-3, 3)
                for _ in range(4)
            },
        )
        g1 = Polynomial(2, {(2, 0): rng.randint(-2, 2), (1, 1): rng.randint(-2, 2)})
        g2 = Polynomial(2, {(0, 2): rng.randint(-2, 2)})
        a = substitute(f, [x + g1, y + g2], 8)
        b = substitute_shifted(f, [g1, g2], 8)
        assert a.poly == b.poly


# ---------------------------------------------------------------- series


def test_series_sqrt_one():
    one = TruncatedSeries(Polynomial.constant(1, 1), 6)
    assert series_sqrt(one).poly == Polynomial.constant(1, 1)


def test_series_sqrt_one_plus_x():
    s = TruncatedSeries(P("1+x", 1), 4)
    t = series_sqrt(s)
    assert t.poly == Polynomial(
        1, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(-1, 8), (3,): Fraction(1, 16)}
    )
    assert (t * t).poly == s.poly


def test_series_sqrt_one_plus_x_squared():
    s = TruncatedSeries(P("1+x^2", 1), 5)
    t = series_sqrt(s)
    assert t.poly == Polynomial(
        1, {(0,): 1, (2,): Fraction(1, 2), (4,): Fraction(-1, 8)}
    )
    assert (t * t).poly == s.poly


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4)), coeff_st, max_size=4
    ),
)
@settings(max_examples=40, deadline=None)
def test_series_sqrt_squares_back(terms):
    terms = {m: c for m, c in terms.items() if sum(m) > 0}
    s = TruncatedSeries(Polynomial.constant(1, 1) + Polynomial(1, terms), 8)
    t = series_sqrt(s)
    assert (t * t).poly == s.poly
    assert t.constant_term == 1


def test_series_inverse():
    s = TruncatedSeries(P("2 + x + x^2", 1), 7)
    inv = series_inverse(s)
    assert (inv * s).poly == Polynomial.constant(1, 1)
    with pytest.raises(ValueError):
        series_inverse(TruncatedSeries(P("x", 1), 4))


def test_series_inverse_multivariate_matches_full_order_newton():
    s = TruncatedSeries(P("3 + x - 2*y + x*y^2 + 5*y^3 - x^4", 2), 11)
    inv = series_inverse(s)
    assert inv.order == 11
    assert (s * inv).poly == Polynomial.constant(2, 1)
    # reference: every Newton pass at the full order
    ref = TruncatedSeries(Polynomial.constant(2, Fraction(1, 3)), 11)
    for _ in range(4):  # 2^4 >= 11
        ref = ref * (2 - s * ref)
    assert inv == ref


# ---------------------------------------------------------------- multiplicity


def test_multiplicity_values():
    assert multiplicity(P("x^3 + x*y^2", 2)) == 3
    assert multiplicity(Polynomial.constant(2, 7)) == 0
    assert multiplicity(Polynomial.zero(2)) == math.inf


def test_truncated_series_multiplicity_marker():
    marker = multiplicity(TruncatedSeries.zero(2, 9))
    assert marker == MultiplicityBound(9)
    assert marker.bound == 9
    assert repr(marker) == ">= 9"


def test_series_arithmetic_retruncates():
    a = TruncatedSeries(P("x", 1), 3)
    b = TruncatedSeries(P("x^2", 1), 5)
    assert (a * b).order == 3
    assert (a * b).poly.is_zero()  # x^3 is cut at order 3
