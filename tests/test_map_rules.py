"""The rules every coordinate map and series tuple obeys, stated once in
``polyring`` and read by every entry that takes images or shifts."""

import itertools
import random
from fractions import Fraction

import pytest

from lctlab.equiv import CoordinateMap, formal_equiv_rank2, morsify, tougeron, verify_map
from lctlab.jacobian import MembershipWitness, ideal_power, jacobian_ideal, membership_truncated
from lctlab.polyring import (
    Polynomial,
    TruncatedSeries,
    parse_poly,
    series_inverse,
    substitute,
    substitute_shifted,
)
from oracles import series_inverse_by_doubling


def P(text, n):
    return parse_poly(text, n)


def _then(bad, order):
    """Compose along a map whose kept shifts are ``bad``: ``then`` reads
    those shifts, not the images."""
    other = CoordinateMap.identity(2, order)
    other._shifts = bad
    return CoordinateMap.identity(2, order).then(other)


_ENTRIES = {
    "CoordinateMap": lambda bad: CoordinateMap(bad, 6),
    "CoordinateMap.shift": lambda bad: CoordinateMap.shift(bad, 6),
    "substitute": lambda bad: substitute(P("x^2 + x*y^3", 2), bad, 6),
    "substitute_shifted": lambda bad: substitute_shifted(P("x^2 + x*y^3", 2), bad, 6),
    "then": lambda bad: _then(bad, 6),
}

# one bad tuple per rule, each in (or read against) 2 variables, and the one
# message that every entry gives for it
_BAD = {
    "wrong count": (
        lambda: [P("x^2", 2), P("y^2", 2), P("x*y", 2)],
        ValueError, r"a map in 2 variables needs 2 (image|shift)s, got 3",
    ),
    "wrong nvars": (
        lambda: [TruncatedSeries(P("x^2", 2), 8), P("y^2 + z^3", 3)],
        ValueError, r"(image|shift) of x2 has nvars 3, expected 2",
    ),
    "constant term": (
        lambda: [P("x^2 + 1", 2), P("y^2", 2)],
        ValueError, r"(image|shift) of x1 has nonzero constant term",
    ),
    "not a polynomial": (
        lambda: [P("x^2", 2), 3],
        TypeError, r"(image|shift)s must be Polynomial or TruncatedSeries",
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("rule", sorted(_BAD))
def test_every_entry_refuses_bad_images_with_one_message_per_rule(entry, rule):
    make, error, message = _BAD[rule]
    with pytest.raises(error, match=message):
        _ENTRIES[entry](make())


def test_a_linear_map_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square matrix, got shape 2x3"):
        CoordinateMap.linear([[1, 2, 3], [0, 1, 0]], 4)
    with pytest.raises(ValueError, match="square matrix, got shape 3x2"):
        CoordinateMap.linear([[1, 0], [0, 1], [1, 1]], 4)
    with pytest.raises(ValueError, match="square matrix, got shape 2x2/3"):
        CoordinateMap.linear([[1, 0], [0, 1, 0]], 4)
    cmap = CoordinateMap.linear([[1, 2], [0, Fraction(1, 2)]], 4)
    assert [str(im.poly) for im in cmap.images] == ["x1 + 2*x2", "1/2*x2"]
    assert cmap.linear_part() == [[1, 2], [0, Fraction(1, 2)]]


def test_a_series_image_must_be_known_to_the_maps_order():
    x = P("x", 1)
    with pytest.raises(ValueError, match=r"image of x1 is known mod m\^4, below the map's order 8"):
        CoordinateMap([TruncatedSeries(x + x**5, 4)], 8)
    with pytest.raises(ValueError, match=r"image of x2 is known mod m\^3, below the map's order 5"):
        CoordinateMap([P("x + y^2", 2), TruncatedSeries(P("y + x^2", 2), 3)], 5)
    # at or above the map's order the image is read, cut at the map's order
    assert str(CoordinateMap([TruncatedSeries(x + x**5, 8)], 8).apply(x**2)) == "2*x1^6 + x1^2 + O(m^8)"
    cmap = CoordinateMap([TruncatedSeries(x + x**5 + x**9, 12)], 8)
    assert str(cmap.images[0]) == "x1^5 + x1 + O(m^8)"
    assert str(cmap.apply(x**2)) == "2*x1^6 + x1^2 + O(m^8)"


def test_verify_map_refuses_an_order_above_the_maps_own():
    x7 = P("x^7", 1)
    ident = CoordinateMap.identity(1, 6)
    with pytest.raises(ValueError, match="order 12 reads past the map's order 6"):
        verify_map(x7, TruncatedSeries(x7, 12), ident, 12)
    for order in (None, 6, 3):
        assert verify_map(x7, TruncatedSeries(x7, 12), ident, order) == (True, None)
    ok, degree = verify_map(P("x^2", 1), TruncatedSeries(P("x^2 + x^5", 1), 12), ident, 6)
    assert not ok and degree == 5


def _typed(p):
    return {m: (type(c), c) for m, c in p.terms.items()}


def test_series_inverse_is_the_scalar_doubling_loop():
    # the 1 x 1 case of the matrix Newton inverse against the scalar loop it
    # replaced: the same value, coefficient types and order
    rng = random.Random(6271)
    seen = {"int constant": 0, "Fraction constant": 0, "Fraction term": 0, "3 variables": 0}
    for order, _ in itertools.product(range(1, 13), range(12)):
        n = rng.randint(1, 3)
        c0 = rng.choice((1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3)))
        terms = {(0,) * n: c0}
        for _ in range(rng.randint(0, 5)):
            mono = [0] * n
            for _ in range(rng.randint(1, order + 1)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.choice((-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)))
        s = TruncatedSeries(Polynomial(n, terms), order)
        got, want = series_inverse(s), series_inverse_by_doubling(s)
        assert got.order == want.order == order
        assert _typed(got.poly) == _typed(want.poly), (str(s), order)
        assert (s * got).poly == Polynomial.constant(n, 1)
        seen["int constant"] += type(c0) is int
        seen["Fraction constant"] += type(c0) is Fraction
        seen["Fraction term"] += any(type(c) is Fraction for c in got.poly.terms.values())
        seen["3 variables"] += n == 3
    assert min(seen.values()) >= 20, seen


# every entry that certifies or solves mod m^8, with the argument it reads
# there (each has a term past the order), the call, and the subject and owner
# of the order that its refusal names
_CMAP = CoordinateMap.shift([P("x*y + y^3", 2), P("x^2", 2)], 8)
_F = P("x^2 + x*y^2 + y^5 + x^4*y^5", 2)
_F_IMAGE = _CMAP.apply(_F).poly
_KNOWN = {
    "CoordinateMap": (
        P("x + y^2 + x^9", 2), lambda s: repr(CoordinateMap([s, P("y + x^3", 2)], 8)), "image of x1", "map",
    ),
    "CoordinateMap.shift": (
        P("x*y + y^5 + x^9", 2), lambda s: repr(CoordinateMap.shift([s, P("x^2", 2)], 8)), "shift of x1", "map",
    ),
    "verify_map f": (_F, lambda s: verify_map(s, _F_IMAGE, _CMAP), "f", "check"),
    "verify_map target": (
        _F_IMAGE + P("x^3*y^3 + x^9", 2), lambda s: verify_map(_F, s, _CMAP), "target", "check",
    ),
    "morsify": (_F, lambda s: (repr(morsify(s, 8).map), str(morsify(s, 8).residual)), "f", "map"),
    "membership_truncated": (
        P("x^4 + x^2*y^2 + x^9", 2),
        lambda s: membership_truncated(s, ideal_power(jacobian_ideal(P("x^3 + y^3", 2)), 2), 8),
        "g", "witness",
    ),
}


@pytest.mark.parametrize("entry", sorted(_KNOWN))
@pytest.mark.parametrize("known", [4, 7, 8, 12])
def test_every_certifying_entry_reads_a_series_by_one_rule(entry, known):
    # below the order: refused, with one message; at or above it: read as
    # its polynomial, the same result as passing that polynomial
    poly, call, what, whose = _KNOWN[entry]
    series = TruncatedSeries(poly, known)
    if known < 8:
        with pytest.raises(ValueError, match=rf"^{what} is known mod m\^{known}, below the {whose}'s order 8$"):
            call(series)
    else:
        assert call(series) == call(poly)


_X2_X5 = P("x^2 + x^5", 1)


def test_verify_map_refuses_a_target_known_below_the_order():
    # it used to return (False, 5), a difference at a degree the target does not know
    with pytest.raises(ValueError, match=r"target is known mod m\^4, below the check's order 8"):
        verify_map(_X2_X5, TruncatedSeries(_X2_X5, 4), CoordinateMap.identity(1, 8))


def test_verify_map_refuses_an_f_known_below_the_order():
    with pytest.raises(ValueError, match=r"f is known mod m\^4, below the check's order 8"):
        verify_map(TruncatedSeries(_X2_X5, 4), _X2_X5, CoordinateMap.identity(1, 8))


def test_verify_map_refuses_f_and_target_both_known_below_the_order():
    # it used to return (True, None), claiming agreement mod m^8
    with pytest.raises(ValueError, match=r"f is known mod m\^4, below the check's order 8"):
        verify_map(TruncatedSeries(_X2_X5, 4), TruncatedSeries(_X2_X5, 4), CoordinateMap.identity(1, 8))


def test_morsify_refuses_an_f_known_below_its_order():
    # it used to return the residual -1/4*x2^4 + O(m^8), which the y^5 term
    # of the germ, unknown mod m^4, changes
    with pytest.raises(ValueError, match=r"f is known mod m\^4, below the map's order 8"):
        morsify(TruncatedSeries(P("x^2 + x*y^2 + y^5", 2), 4), 8)


def test_a_shift_map_refuses_a_shift_known_below_its_order():
    # as CoordinateMap refuses the image x + x^2 + x^5 + O(m^4) that it used to build
    with pytest.raises(ValueError, match=r"shift of x1 is known mod m\^4, below the map's order 8"):
        CoordinateMap.shift([TruncatedSeries(_X2_X5, 4)], 8)


def test_membership_reads_a_series_g_known_to_the_order():
    jf2 = ideal_power(jacobian_ideal(P("x^3 + y^3", 2)), 2)
    g = P("x^4 + x^2*y^2", 2)
    witness = membership_truncated(TruncatedSeries(g, 10), jf2, 8)
    assert isinstance(witness, MembershipWitness)
    assert witness == membership_truncated(g, jf2, 8)
    with pytest.raises(ValueError, match=r"g is known mod m\^5, below the witness's order 8"):
        membership_truncated(TruncatedSeries(g, 5), jf2, 8)


def test_the_absorptions_refuse_a_witness_of_lower_order():
    # the witness knows g mod m^6 only; formal_equiv_rank2 used to return a
    # map claiming f + g mod m^10
    f = P("x^3 + y^3", 2)
    witness = membership_truncated(P("x^4 + x^2*y^2", 2), ideal_power(jacobian_ideal(f), 2), 6)
    with pytest.raises(ValueError, match=r"witnessed g is known mod m\^6, below the map's order 10"):
        tougeron(f, witness, 10)
    f = P("x^2 + y^3", 2)
    witness = membership_truncated(P("x^2*y^2 + y^7", 2), ideal_power(jacobian_ideal(f), 2), 6)
    with pytest.raises(ValueError, match=r"witnessed g is known mod m\^6, below the map's order 10"):
        formal_equiv_rank2(f, witness, 10)
    assert formal_equiv_rank2(f, witness, 6).order == 6


def test_the_composition_entries_cap_at_a_series_f_instead():
    # substitute, substitute_shifted and apply return the lower order
    f = TruncatedSeries(P("x^3 + y^3", 2), 4)
    shifts = [P("y^2", 2), P("x^2", 2)]
    images = [P("x + y^2", 2), P("y + x^2", 2)]
    assert CoordinateMap.identity(2, 8).apply(f).order == 4
    assert CoordinateMap.shift(shifts, 8).apply(f) == f
    assert substitute(f, images, 8) == substitute(f.poly, images, 4)
    assert substitute_shifted(f, shifts, 8) == substitute_shifted(f.poly, shifts, 4)
    assert substitute(f, images, 8).order == substitute_shifted(f, shifts, 8).order == 4
