"""Jet counts, contact loci, codimension estimates."""

import math

import pytest

from lctlab.arcs import count_contact_jets, empirical_codim
from lctlab.budget import BudgetExceededError
from lctlab.jacobian import IdealGens
from lctlab.polyring import parse_poly


def P(text, nvars):
    return parse_poly(text, nvars)


def ideal(nvars, *texts):
    return IdealGens(nvars, [P(t, nvars) for t in texts])


DET2 = ideal(4, "x1*x4 - x2*x3")


# ---------------------------------------------------------------- jet counts


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_coordinate_function_counts(p, m):
    a = ideal(1, "x")
    for e in range(0, m + 2):
        assert count_contact_jets(a, p, m, e) == p ** (m + 1 - e)


def test_two_coordinates():
    assert count_contact_jets(ideal(2, "x", "y"), 3, 1, 1) == 9


@pytest.mark.parametrize("p", [3, 5])
def test_determinantal_count(p):
    # e=1 at m=1 pins only the constant coefficients to a singular matrix
    count = count_contact_jets(DET2, p, 1, 1)
    singular = p**3 + p**2 - p
    assert count == p**4 * singular
    assert count // p**4 == singular


def test_zero_contact_order_counts_everything():
    assert count_contact_jets(DET2, 3, 1, 0) == 3**8


def test_counts_monotone_in_contact_order():
    a = ideal(2, "x^3 + y^3")
    prev = None
    for e in range(0, 4):
        c = count_contact_jets(a, 5, 2, e)
        if prev is not None:
            assert c <= prev
        prev = c


def test_monomial_count_factorizes_over_variables():
    # a condition only on x1 leaves the second variable's block free
    joint = count_contact_jets(ideal(2, "x^2"), 3, 2, 2)
    single = count_contact_jets(ideal(1, "x^2"), 3, 2, 2)
    assert joint == single * 3**3


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_contact_jets(DET2, 101, 3, 1)
    with pytest.raises(BudgetExceededError):
        count_contact_jets(DET2, 7, 3, 1, budget=10**6)


def test_bad_contact_order():
    with pytest.raises(ValueError):
        count_contact_jets(DET2, 3, 1, 3)


def test_negative_jet_order_is_refused():
    with pytest.raises(ValueError, match="m >= 0"):
        count_contact_jets(ideal(2, "x^2 + y^2"), 5, -1, 0)


def test_jet_order_zero_counts_constant_jets():
    # x^2 + y^2 has 9 zeros mod 5, since -1 = 2^2 there
    a = ideal(2, "x^2 + y^2")
    assert count_contact_jets(a, 5, 0, 0) == 25
    assert count_contact_jets(a, 5, 0, 1) == 9


# ---------------------------------------------------------------- codim estimates


def test_empirical_codim_exact_for_coordinate():
    a = ideal(1, "x")
    data = [(p, count_contact_jets(a, p, 2, 2)) for p in (3, 5, 7)]
    est = empirical_codim(data, 1, 2)
    assert abs(est.estimate - 2) < 1e-9
    assert est.residual < 1e-9


def test_empirical_codim_determinantal_leading_order():
    data = [(p, count_contact_jets(DET2, p, 1, 1)) for p in (3, 5, 7)]
    est = empirical_codim(data, 4, 1)
    assert abs(est.estimate - 1) < 0.2


def test_empirical_codim_diagonal_reported():
    # the leading constant depends on p mod 3 here, so the two-prime fit is
    # reported only, never asserted against theory
    a = ideal(2, "x^3 + y^3")
    data = [(p, count_contact_jets(a, p, 2, 2)) for p in (5, 7)]
    est = empirical_codim(data, 2, 2)
    assert math.isfinite(est.estimate)
    assert est.points == data


def test_empirical_codim_reads_a_generator():
    a = ideal(1, "x")
    data = [(p, count_contact_jets(a, p, 2, 2)) for p in (3, 5, 7)]
    est = empirical_codim(((p, count) for p, count in data), 1, 2)
    assert abs(est.estimate - 2) < 1e-9
    assert est.points == data


def test_empirical_codim_needs_two_points():
    with pytest.raises(ValueError):
        empirical_codim([(3, 10)], 1, 1)
    with pytest.raises(ValueError, match="distinct primes"):
        empirical_codim([(3, 10), (3, 12)], 1, 1)


# ---------------------------------------------------------------- jet points


def test_jet_point_contact_order_matches_count():
    from itertools import product as iproduct

    from oracles import JetPoint

    # brute-force reference: enumerate all jets directly and test the count
    a = ideal(2, "x^2 + y^3")
    p, m, e = 3, 2, 2
    direct = 0
    for coeffs in iproduct(range(p), repeat=(m + 1) * 2):
        jet = JetPoint(p, m, (coeffs[: m + 1], coeffs[m + 1 :]))
        if jet.contact_order_ideal(a) >= e:
            direct += 1
    assert direct == count_contact_jets(a, p, m, e)


def test_jet_point_validation():
    from oracles import JetPoint

    jp = JetPoint(5, 1, ((7, 3),))  # coefficients reduce mod p
    assert jp.coords == ((2, 3),)
    with pytest.raises(ValueError):
        JetPoint(5, 2, ((1, 2),))
