"""Polynomial core: parsing, calculus, series, and their exact identities."""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctlab import polyring
from lctlab.polyring import (
    DEFAULT_ORDER,
    MultiplicityBound,
    ParseError,
    Polynomial,
    TruncatedSeries,
    _image_list,
    _Powers,
    divided_power,
    dot,
    monomials_below,
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


# The two substitution loops as they were before the Taylor and composition
# sums shared one power cache (per-variable image powers, and a depth-first
# walk over the exponents), kept verbatim as oracles.


def _substitute_per_variable(f, images, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    if isinstance(f, TruncatedSeries):
        order = min(order, f.order)
        f = f.poly
    if hasattr(images, "images"):  # accept a CoordinateMap directly
        images = images.images
    imgs = _image_list(images, f.nvars)
    for k, im in enumerate(imgs):
        if im.constant_term:
            raise ValueError(f"image of x{k + 1} has nonzero constant term")
    # cache powers of each image as needed
    pow_cache = [{0: Polynomial.constant(f.nvars, 1)} for _ in range(f.nvars)]

    def power(i, e):
        cache = pow_cache[i]
        if e in cache:
            return cache[e]
        k = max(k for k in cache if k <= e)
        acc = cache[k]
        while k < e:
            acc = acc.mul_truncated(imgs[i], order)
            k += 1
            cache[k] = acc
        return acc

    total = Polynomial.zero(f.nvars)
    for mono, coeff in sorted(f.terms.items(), key=lambda t: sum(t[0])):
        if sum(e * imgs[i].multiplicity() for i, e in enumerate(mono) if e) >= order:
            continue
        term = Polynomial.constant(f.nvars, coeff)
        for i, e in enumerate(mono):
            if e:
                term = term.mul_truncated(power(i, e), order)
        total = total + term
    return TruncatedSeries(total, order)


def _substitute_shifted_dfs(f, shifts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    if isinstance(f, TruncatedSeries):
        order = min(order, f.order)
        f = f.poly
    gs = _image_list(shifts, f.nvars)
    for k, g in enumerate(gs):
        if g.constant_term:
            raise ValueError(f"shift of x{k + 1} has nonzero constant term")
    mults = [g.multiplicity() if not g.is_zero() else order for g in gs]
    n = f.nvars
    total = f.truncate(order)
    # enumerate alpha != 0 by depth-first extension, caching g^alpha products
    stack = [((0,) * n, Polynomial.constant(n, 1), 0)]
    while stack:
        alpha, galpha, start = stack.pop()
        for i in range(start, n):
            if gs[i].is_zero():
                continue
            new_alpha = list(alpha)
            new_alpha[i] += 1
            new_alpha = tuple(new_alpha)
            cost = sum(a * m for a, m in zip(new_alpha, mults))
            if cost >= order:
                continue
            dpf = divided_power(f, new_alpha)
            if dpf.is_zero():
                # deeper exponents dominate new_alpha componentwise, so their
                # divided powers vanish too: prune the whole subtree
                continue
            new_g = galpha.mul_truncated(gs[i], order)
            if new_g.is_zero():
                continue
            total = total + dpf.mul_truncated(new_g, order)
            stack.append((new_alpha, new_g, i))
    return TruncatedSeries(total, order)


_COEFFS = (-3, -2, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3))


def _random_poly(rng, n, nterms, lo, hi):
    """Seeded polynomial with terms of total degree lo..hi."""
    terms = {}
    for _ in range(nterms):
        mono = [0] * n
        for _ in range(rng.randint(lo, hi)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.choice(_COEFFS)
    return Polynomial(n, terms)


def _random_series_tuple(rng, n):
    """Shifts or images: some zero, the others of multiplicity 1 to 3, some
    wrapped as truncated series."""
    out = []
    for _ in range(n):
        if rng.random() < 0.2:
            g = Polynomial.zero(n)
        else:
            lo = rng.choice((1, 1, 2, 3))
            g = _random_poly(rng, n, rng.randint(1, 3), lo, lo + 2)
        out.append(TruncatedSeries(g, rng.randint(4, 12)) if rng.random() < 0.2 else g)
    return out


def _oracle_corpus(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(1, 4)
        f = _random_poly(rng, n, rng.randint(1, 6), 0, 6)
        if rng.random() < 0.25:
            f = TruncatedSeries(f, rng.randint(3, 9))
        yield f, _random_series_tuple(rng, n), rng.randint(3, 9)


def test_substitute_matches_the_per_variable_oracle():
    for f, images, order in _oracle_corpus(2031):
        got = substitute(f, images, order)
        want = _substitute_per_variable(f, images, order)
        assert got.order == want.order and got.poly == want.poly, (str(f), images, order)


def test_substitute_shifted_matches_the_depth_first_oracle():
    for f, shifts, order in _oracle_corpus(4099):
        got = substitute_shifted(f, shifts, order)
        want = _substitute_shifted_dfs(f, shifts, order)
        assert got.order == want.order and got.poly == want.poly, (str(f), shifts, order)


# The Taylor walk as it was before it skipped non-contributing exponents:
# every alpha below the order, a divided power for each, kept verbatim as the
# oracle of the pruned walk (which must give the same terms in the same order).


def _substitute_shifted_unpruned(f, shifts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    if isinstance(f, TruncatedSeries):
        order = min(order, f.order)
        f = f.poly
    gs = _image_list(shifts, f.nvars, "shift")
    mults = [g.multiplicity() if not g.is_zero() else order for g in gs]
    powers = _Powers(gs, order)
    pairs = [(dpf, powers.get(alpha)) for alpha in monomials_below(mults, order)[1:]  # alpha != 0
             if not (dpf := divided_power(f, alpha)).is_zero()]
    return TruncatedSeries(f + dot(f.nvars, pairs, order), order)


def _listed(p):
    """Terms in dict order, with the type of each coefficient."""
    return [(m, type(c), c) for m, c in p.terms.items()]


def test_substitute_shifted_matches_the_unpruned_walk():
    seen = {"mult-1 shift": 0, "zero shift": 0, "f at or above the order": 0, "Fraction": 0}
    for f, shifts, order in _oracle_corpus(5387):
        got = substitute_shifted(f, shifts, order)
        want = _substitute_shifted_unpruned(f, shifts, order)
        assert got.order == want.order and _listed(got.poly) == _listed(want.poly), (str(f), shifts, order)
        fpoly = f.poly if isinstance(f, TruncatedSeries) else f
        gs = _image_list(shifts, fpoly.nvars)
        seen["mult-1 shift"] += any(g.multiplicity() == 1 for g in gs)
        seen["zero shift"] += any(g.is_zero() for g in gs)
        seen["f at or above the order"] += any(sum(m) >= got.order for m in fpoly.terms)
        seen["Fraction"] += any(type(c) is Fraction for p in [fpoly, *gs] for c in p.terms.values())
    assert min(seen.values()) >= 25, seen


# A g^alpha is asked for at the precision it is read, and a map tangent to the
# identity is substituted as a Taylor shift: both against the full-order
# products and against the power path of ``substitute``.


def _full_power(gs, alpha, order):
    """g^alpha mod m^order, one factor power at a time at the full order."""
    out = Polynomial.constant(gs[0].nvars, 1)
    for g, a in zip(gs, alpha):
        out = out.mul_truncated(g.pow_truncated(a, order), order)
    return out


def test_powers_at_a_precision_match_the_full_order_product():
    rng = random.Random(8191)
    seen = {"longer value": 0, "rebuilt higher": 0, "zero shift": 0, "Fraction": 0}
    for _ in range(80):
        n = rng.randint(1, 3)
        order = rng.randint(3, 10)
        gs = _image_list(_random_series_tuple(rng, n), n)
        weights = [g.multiplicity() if g.terms else order for g in gs]
        requests = [(alpha, rng.choice((None, order + 2, *range(1, order + 1))))
                    for alpha in monomials_below(weights, order) for _ in range(2)]
        rng.shuffle(requests)
        powers = _Powers(gs, order)
        for alpha, prec in requests:
            before = powers.cache.get(alpha, (0,))[0]
            got = powers.get(alpha, prec)
            cut = order if prec is None else min(prec, order)
            assert got.truncate(cut) == _full_power(gs, alpha, order).truncate(cut), (gs, alpha, prec)
            seen["longer value"] += before > cut and got.truncate(cut) != got
            seen["rebuilt higher"] += 0 < before < cut
        for alpha, (prec, val) in powers.cache.items():  # each kept at its own precision
            assert val == _full_power(gs, alpha, order).truncate(prec)
        seen["zero shift"] += any(g.is_zero() for g in gs)
        seen["Fraction"] += any(type(c) is Fraction for g in gs for c in g.terms.values())
    assert min(seen.values()) >= 10, seen


def _tangent_corpus(seed):
    """Germs with maps x_i -> x_i + h_i in 2 and 3 variables: some shifts
    zero, the others of multiplicity 2 to 4, Fraction coefficients among
    the rest, and germ terms at and above the order."""
    rng = random.Random(seed)
    for k in range(120):
        n = 2 + k % 2
        shifts = []
        for _ in range(n):
            lo = rng.choice((2, 2, 3, 4))
            shifts.append(Polynomial.zero(n) if rng.random() < 0.2
                          else _random_poly(rng, n, rng.randint(1, 4), lo, lo + 2))
        f = _random_poly(rng, n, rng.randint(1, 6), 1, 6)
        yield f, [Polynomial.variable(n, i) + h for i, h in enumerate(shifts, start=1)], rng.randint(3, 12)


def test_tangent_maps_substitute_as_the_power_path_does():
    seen = {"zero shift": 0, "Fraction": 0, "f at or above the order": 0}
    for f, images, order in _tangent_corpus(6151):
        got = substitute(f, images, order)
        want = polyring._substitute_powers(f, images, order)
        assert got.order == want.order and _typed(got.poly) == _typed(want.poly), (str(f), images, order)
        assert got.poly == _substitute_per_variable(f, images, order).poly
        seen["zero shift"] += any(len(im.terms) == 1 for im in images)
        seen["Fraction"] += any(type(c) is Fraction for p in [f, *images] for c in p.terms.values())
        seen["f at or above the order"] += f.total_degree() >= order
    assert min(seen.values()) >= 25, seen


def test_substitute_routes_on_the_linear_part(monkeypatch):
    x, y, z = (Polynomial.variable(3, i) for i in (1, 2, 3))
    f = P("x^3 + 2*x*y*z - y^4 + 1/2*z^3 + x*y", 3)
    h = P("x^2 - 1/3*y*z + z^3", 3)
    tangent = [x + h, y, z - h * h]
    others = [
        [2 * x + h, y, z],  # a scaled variable
        [y, x + h, z],  # a permutation
        [x + y + h, y, z],  # a linear cross term
        [x + h, y * Fraction(1, 2), z + x],
    ]

    def refuse(*_):
        raise AssertionError("wrong path")

    with monkeypatch.context() as m:
        m.setattr(polyring, "_substitute_powers", refuse)
        got = substitute(f, tangent, 9)
    assert _typed(got.poly) == _typed(polyring._substitute_powers(f, tangent, 9).poly)
    monkeypatch.setattr(polyring, "_taylor_shift", refuse)
    for images in others:
        got = substitute(f, images, 9)
        assert got.poly == _substitute_per_variable(f, images, 9).poly, images


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


# ---------------------------------------------------------------- evaluation and equality


def test_call_evaluates_exactly():
    f = P("x^2 + y^2", 2)
    assert f(1, 2) == 5 and type(f(1, 2)) is int
    assert f(Fraction(1, 2), 1) == Fraction(5, 4)
    with pytest.raises(ValueError, match="wrong number of arguments"):
        f(1)


def test_scalar_equality_and_hash():
    c = Polynomial.constant(2, 3)
    assert c == 3 and c == Fraction(3) and c != 4
    assert c != Polynomial.constant(1, 3)
    assert (c == "3") is False
    built = P("x + y", 2) - P("y", 2)
    assert built == P("x", 2) and hash(built) == hash(P("x", 2))
    assert len({built, P("x", 2), c, Polynomial.constant(2, Fraction(6, 2))}) == 2


def test_a_constant_hashes_as_its_scalar():
    c = Polynomial.constant(1, 3)
    assert 3 in {c} and c in {3}
    assert len({3, c}) == 1
    assert hash(Polynomial.zero(2)) == hash(0) and 0 in {Polynomial.zero(2)}
    assert Fraction(1, 2) in {Polynomial.constant(2, Fraction(1, 2))}


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


def test_only_x_takes_an_index():
    assert P("x2 + w", 4).terms == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1}
    for text in ("y2", "z1", "w3"):
        with pytest.raises(ParseError, match="implicit"):
            P(text, 4)


# ---------------------------------------------------------------- product kernel

# The product loop as it was before every product went through ``dot``
# (tuple monomials, one int or Fraction per product), kept verbatim as the
# oracle of the packed kernel.


def _mul_truncated_tuples(self, other, order):
    a, b = self.terms, other.terms
    if not a or not b:
        return Polynomial.zero(self.nvars)
    if order is not None and self.multiplicity() + other.multiplicity() >= order:
        return Polynomial.zero(self.nvars)
    if len(a) > len(b):
        a, b = b, a
    bl = sorted(((sum(m), m, c) for m, c in b.items()))
    out = {}
    get = out.get
    for ma, ca in a.items():
        da = sum(ma)
        for db, mb, cb in bl:
            if order is not None and da + db >= order:
                break
            mono = tuple(map(int.__add__, ma, mb))
            v = get(mono)
            p = ca * cb
            out[mono] = p if v is None else v + p
    return Polynomial(self.nvars, out)


_BIG = 2**70 + 1
_KERNEL_COEFFS = (
    -3, -1, 1, 2, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, _BIG),
    Fraction(_BIG, 3), Fraction(-1, _BIG), _BIG,
)


def _typed(p):
    """Terms with the type of each coefficient, so that an integral value
    left as a Fraction does not compare equal to the int."""
    return {m: (type(c), c) for m, c in p.terms.items()}


def _kernel_operand(rng, n, order):
    """Terms of degree 0..order+2, sometimes one of degree order-1 in a
    single variable (the largest digit of a packed key), sometimes rational
    with denominators up to 2^70+1."""
    top = (order or 8) + 2
    terms = {}
    for _ in range(rng.randint(1, 7)):
        mono = [0] * n
        for _ in range(rng.randint(0, top)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.choice(_KERNEL_COEFFS[:5] if rng.random() < 0.4 else _KERNEL_COEFFS)
    if order and order > 1 and rng.random() < 0.3:
        mono = [0] * n
        mono[rng.randrange(n)] = order - 1
        terms[tuple(mono)] = rng.choice(_KERNEL_COEFFS)
    if rng.random() < 0.1:
        terms = {}
    return Polynomial(n, terms)


def _kernel_corpus(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 4
        order = rng.choice((None, None, 1, rng.randint(2, 12)))
        yield n, order, _kernel_operand(rng, n, order), _kernel_operand(rng, n, order)


def test_mul_truncated_matches_the_tuple_oracle():
    cases = 0
    for n, order, a, b in _kernel_corpus(7919, 360):
        # one operand reused at a second order exercises a repacked key base
        for o in (order, None if order else 5):
            got = a.mul_truncated(b, o)
            want = _mul_truncated_tuples(a, b, o)
            assert _typed(got) == _typed(want), (str(a), str(b), o)
            assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
            cases += 1
    assert cases >= 300


def test_mul_truncated_edge_cases():
    x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    # cancellation inside one product, and products that vanish below the order
    assert _typed((x - y).mul_truncated(x + y, None)) == {(2, 0): (int, 1), (0, 2): (int, -1)}
    assert (x * x).mul_truncated(y, 3).is_zero()
    assert Polynomial.constant(2, 3).mul_truncated(Polynomial.constant(2, 5), 1).terms == {(0, 0): 15}
    assert (x + 1).mul_truncated(y + 1, 1).terms == {(0, 0): 1}
    # halves and thirds that multiply to integers come back as ints
    half = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)})
    two = Polynomial(2, {(0, 0): 2, (1, 0): 3})
    assert _typed(half.mul_truncated(two, None)) == _typed(_mul_truncated_tuples(half, two, None))
    assert type(half.mul_truncated(two, None).terms[(1, 0)]) is int
    # the largest exponent below the order in one variable, in four variables
    e = Polynomial.monomial(4, (0, 0, 9, 0), _BIG)
    f = Polynomial(4, {(0, 0, 0, 0): Fraction(1, _BIG), (0, 0, 0, 1): 1})
    assert _typed(e.mul_truncated(f, 10)) == {(0, 0, 9, 0): (int, 1)}


def test_dot_is_the_sum_of_oracle_products():
    rng = random.Random(6007)
    for k in range(120):
        n = 1 + k % 4
        order = rng.choice((None, 1, rng.randint(2, 12)))
        pairs = [
            (_kernel_operand(rng, n, order), _kernel_operand(rng, n, order))
            for _ in range(rng.randint(1, 5))
        ]
        want = Polynomial.zero(n)
        for a, b in pairs:
            want = want + _mul_truncated_tuples(a, b, order)
        assert _typed(dot(n, pairs, order)) == _typed(want), (order, [(str(a), str(b)) for a, b in pairs])
        # a generator of pairs is consumed once
        assert _typed(dot(n, iter(pairs), order)) == _typed(want)


# The kernel as it was before it packed at one fixed key base through the
# monomial codec: keys at base ``order`` (or one more than the largest degree
# of an exact product), a Horner pass per term and a divmod pass per output
# term, kept verbatim (less the per-polynomial packing cache) as the oracle of
# the terms' values and of their order.


def _packed_at(p, base):
    den = 1
    for c in p.terms.values():
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    rows = []
    for m, c in p.terms.items():
        d = sum(m)
        if d < base:
            k = 0
            for e in m:
                k = k * base + e
            rows.append((d, k, c if den == 1 else c.numerator * (den // c.denominator)))
    rows.sort()
    return den, rows


def _dot_per_order(nvars, pairs, order=None):
    base = order
    if order is None:
        pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
        base = 1 + max([a.total_degree() + b.total_degree() for a, b in pairs], default=0)
    packs, den = [], 1
    for a, b in pairs:
        da, rowa = _packed_at(a, base)
        db, rowb = _packed_at(b, base)
        if not rowa or not rowb or rowa[0][0] + rowb[0][0] >= base:
            continue
        if len(rowa) > len(rowb):
            rowa, rowb = rowb, rowa
        if da * db != 1:
            den = math.lcm(den, da * db)
        packs.append((da * db, rowa, rowb))
    acc, terms = {}, {}
    get = acc.get
    for pair_den, rowa, rowb in packs:
        scale = den // pair_den
        for d, ka, ca in rowa:
            end = bisect_left(rowb, (base - d,))
            if not end:
                break
            if scale != 1:
                ca *= scale
            for _, kb, cb in rowb[:end] if end < len(rowb) else rowb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    for k, v in acc.items():
        if v:
            mono = [0] * nvars
            for i in range(nvars - 1, 0, -1):
                k, mono[i] = divmod(k, base)
            mono[0] = k
            if den != 1:
                q, r = divmod(v, den)
                v = Fraction(v, den) if r else q
            terms[tuple(mono)] = v
    return Polynomial._make(nvars, terms)


def _codec_cases(seed, count):
    """Pairs with nvars 1-4 interleaved: at order 70 (a key base above 64),
    exact of degree up to 80, and below order 16."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 4
        order, lo, hi = ((70, 0, 72), (None, 26, 40), (rng.randint(1, 16), 0, 18))[k // 4 % 3]
        yield n, order, [(_random_poly(rng, n, rng.randint(1, 6), lo, hi),
                          _random_poly(rng, n, rng.randint(1, 6), lo, hi)) for _ in range(rng.randint(1, 3))]


def _check_codec_cases(seed, count):
    reached = {"order 70": 0, "exact, degree >= 64": 0, "Fraction": 0}
    for n, order, pairs in _codec_cases(seed, count):
        want = Polynomial.zero(n)
        for a, b in pairs:
            product = a.mul_truncated(b, order)
            assert _typed(product) == _typed(_mul_truncated_tuples(a, b, order))
            assert _listed(product) == _listed(_dot_per_order(n, [(a, b)], order))
            # the same operands again at a second cut reuse their packings
            assert _listed(a.mul_truncated(b, 9)) == _listed(_dot_per_order(n, [(a, b)], 9))
            want = want + _mul_truncated_tuples(a, b, order)
        got = dot(n, pairs, order)
        assert _typed(got) == _typed(want), (order, [(str(a), str(b)) for a, b in pairs])
        assert _listed(got) == _listed(_dot_per_order(n, pairs, order))
        reached["order 70"] += order == 70 and any(sum(m) >= 64 for m in got.terms)
        reached["exact, degree >= 64"] += order is None and any(sum(m) >= 64 for m in got.terms)
        reached["Fraction"] += any(type(c) is Fraction for c in got.terms.values())
    return reached


def test_codec_products_match_the_oracles():
    reached = _check_codec_cases(2113, 240)
    assert min(reached.values()) >= 10, reached


def test_codec_tables_start_afresh_past_their_limit(monkeypatch):
    started = []

    class Codecs(dict):
        def __setitem__(self, key, value):
            started.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(polyring, "_codecs", Codecs())
    monkeypatch.setattr(polyring, "_CODEC_LIMIT", 40)
    reached = _check_codec_cases(881, 60)
    assert min(reached.values()) >= 2, reached
    for base, n in started:
        assert base == polyring._KEY_BASE or base > 64 and base & (base - 1) == 0
    for n in range(1, 5):  # every base-64 codec started afresh at least once
        assert started.count((polyring._KEY_BASE, n)) >= 2, started


def test_dot_cancels_to_the_zero_polynomial():
    a = P("1/3*x*y - 2*y^2 + 5", 2)
    b = Polynomial(2, {(1, 0): Fraction(7, _BIG), (0, 3): -4})
    assert dot(2, [(a, b), (-a, b)], None).terms == {}
    assert dot(2, [(a, b), (a, -b)], 4).terms == {}
    assert dot(2, [], 5).terms == {} and dot(2, [], None).terms == {}


def test_products_across_numbers_of_variables_are_refused():
    # a 2-variable operand packed into the 1-variable codec would also
    # corrupt the codec's tables for every later 1-variable product
    f = P("x^2 + x^3", 1)
    with pytest.raises(ValueError, match="image of x1 has nvars 2, expected 1"):
        substitute(f, [P("x + y", 2)], 5)
    with pytest.raises(ValueError, match="shift of x1 has nvars 2"):
        substitute_shifted(f, [P("x*y", 2)], 5)
    for order in (6, None):
        with pytest.raises(ValueError, match="nvars mismatch"):
            P("x + 1", 1).mul_truncated(P("x*y", 2), order)
        with pytest.raises(ValueError, match="nvars mismatch"):
            dot(1, [(P("x", 1), P("x", 1)), (P("y^3", 2), P("x", 2))], order)
    assert substitute(f, [P("x + x^2", 1)], 5).poly == P("x^2 + 3*x^3 + 4*x^4", 1)
    assert P("x + 1", 1).mul_truncated(P("x^3", 1), 6) == P("x^4 + x^3", 1)


def test_sums_normalize_integral_fractions():
    half = P("1/2*x + 1/3*y", 2)
    assert _typed(half + half) == {(1, 0): (int, 1), (0, 1): (Fraction, Fraction(2, 3))}
    assert (half - half).terms == {}
