"""Exponential sums: histograms, Gauss decay, restricted-sum identities."""

import math

import numpy as np
import pytest
from fractions import Fraction

from lctlab.arcs import count_contact_jets
from lctlab.budget import BudgetExceededError
from lctlab.expsum import (
    count_solutions,
    decay_exponent,
    decay_profile,
    exp_sum,
    exp_sum_restricted,
    igusa_identity_check,
    residue_histogram,
)
from lctlab.jacobian import IdealGens
from lctlab.polyring import Polynomial, parse_poly


def P(text, nvars):
    return parse_poly(text, nvars)


def ideal(nvars, *texts):
    return IdealGens(nvars, [P(t, nvars) for t in texts])


# ---------------------------------------------------------------- histograms


def test_histogram_linear_is_uniform():
    h = residue_histogram(P("x", 1), 5, 1)
    assert list(h.counts) == [1] * 5


def test_histogram_squares_mod_5():
    h = residue_histogram(P("x^2", 1), 5, 1)
    assert dict(enumerate(h.counts.tolist())) == {0: 1, 1: 2, 2: 0, 3: 0, 4: 2}


def test_histogram_sum_of_squares_mod_3():
    # enumeration oracle: only (0, 0) solves x^2 + y^2 = 0 mod 3
    oracle = sum(
        1 for x in range(3) for y in range(3) if (x * x + y * y) % 3 == 0
    )
    assert oracle == 1
    h = residue_histogram(P("x^2 + y^2", 2), 3, 1)
    assert h.total == 9
    assert h.counts[0] == oracle


def test_histogram_total_invariant():
    for p, m in ((3, 2), (7, 2)):
        h = residue_histogram(P("x^3 + y^3", 2), p, m)
        assert h.check_total()


def test_histogram_constant_shift_is_cyclic():
    h1 = residue_histogram(P("x^3 + y^3", 2), 7, 2)
    h2 = residue_histogram(P("x^3 + y^3 + 5", 2), 7, 2)
    assert (np.roll(h1.counts, 5) == h2.counts).all()


def test_translation_by_modulus_multiples_is_invisible():
    f = P("x^3 + y^3", 2)
    shifted = f + P("x*y^2", 2) * 7**2  # adds a multiple of p^m
    h1 = residue_histogram(f, 7, 2)
    h2 = residue_histogram(shifted, 7, 2)
    assert (h1.counts == h2.counts).all()


def test_histogram_rejects_constants_and_budget():
    with pytest.raises(ValueError):
        residue_histogram(Polynomial.constant(1, 3), 5, 1)
    with pytest.raises(BudgetExceededError):
        residue_histogram(P("x^3+y^3+z^3", 3), 11, 3)


# ---------------------------------------------------------------- exp sums


def test_full_linear_sum_vanishes():
    assert abs(exp_sum(P("x", 1), 5, 1)) < 1e-14


def test_gauss_magnitudes():
    assert abs(abs(exp_sum(P("x^2", 1), 5, 1)) - 5**-0.5) < 1e-12
    assert abs(abs(exp_sum(P("x^2", 1), 5, 2)) - 1 / 5) < 1e-12


def test_exp_sum_bounded_by_one():
    for text, nvars, p, m in (("x^2", 1, 7, 2), ("x^3+y^3", 2, 5, 2)):
        assert abs(exp_sum(P(text, nvars), p, m)) <= 1 + 1e-12


def test_diagonal_factorization():
    e2 = exp_sum(P("x^3 + y^3", 2), 7, 2)
    e1 = exp_sum(P("x^3", 1), 7, 2)
    assert abs(e2 - e1 * e1) < 1e-9


def test_restricted_sum_examples():
    f = P("x^2", 1)
    full = exp_sum(f, 5, 2)
    assert abs(full - exp_sum_restricted(f, 5, 2, None)) < 1e-15
    # restricting to x = 0 mod 5 keeps 5 points whose phases are all 1
    r = exp_sum_restricted(f, 5, 2, ideal(1, "x"))
    assert abs(r - 0.2) < 1e-12


def test_non_integer_restriction_is_refused_before_the_budget():
    # the restriction's terms are converted when its mask is built, ahead of
    # the census and so of its budget check
    with pytest.raises(ValueError, match="integer coefficients"):
        exp_sum_restricted(P("x^2", 1), 5, 2, ideal(1, "1/2*x"), budget=1)


def test_restricted_sum_agrees_with_high_vanishing_cut():
    # for m = 2 the tube sum equals the sum over ord f >= 1 within the tube
    f = P("x^3 + y^3", 2)
    p, m = 7, 2
    tube = exp_sum_restricted(f, p, m, ideal(2, "x", "y"))
    rep = igusa_identity_check(f, p, m, ideal(2, "x", "y"))
    assert rep.efz1 and abs(tube) <= 1


_F2 = parse_poly("x^2 + y^2", 2)
_CENSUSES = {
    "residue_histogram": lambda p: residue_histogram(_F2, p, 2),
    "exp_sum": lambda p: exp_sum(_F2, p, 2),
    "exp_sum_restricted": lambda p: exp_sum_restricted(_F2, p, 2, ideal(2, "x")),
    "count_solutions": lambda p: count_solutions(_F2, p, 2),
    "decay_profile": lambda p: decay_profile(_F2, p, 2),
    "igusa_identity_check": lambda p: igusa_identity_check(_F2, p, 2, ideal(2, "x", "y")),
    "count_contact_jets": lambda p: count_contact_jets(IdealGens(2, [_F2]), p, 1, 1),
}


@pytest.mark.parametrize("p", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(_CENSUSES))
def test_every_census_refuses_a_p_that_is_not_prime(name, p):
    # Hensel lifting and the linear algebra mod p need the field Z/p
    with pytest.raises(ValueError, match="p must be a prime"):
        _CENSUSES[name](p)


def test_census_refuses_a_level_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        residue_histogram(_F2, 7, 0)


def test_igusa_refuses_a_restriction_in_other_variables():
    with pytest.raises(ValueError, match="restriction nvars mismatch"):
        igusa_identity_check(_F2, 7, 2, ideal(3, "z"))


def test_restricted_sum_refuses_a_restriction_in_other_variables():
    with pytest.raises(ValueError, match="restriction nvars mismatch"):
        exp_sum_restricted(_F2, 7, 2, ideal(3, "z"))


@pytest.mark.parametrize("p,mmax", [(4, 0), (5, 0), (5, -2)])
def test_decay_profile_refuses_a_top_level_below_one(p, mmax):
    # refused before any census, so an empty profile never hides a bad p
    with pytest.raises(ValueError, match="mmax must be at least 1"):
        decay_profile(_F2, p, mmax)


# ---------------------------------------------------------------- N_k


def test_count_solutions_examples():
    assert count_solutions(P("x", 1), 5, 3) == 1
    assert count_solutions(P("x^2", 1), 5, 2) == 5
    assert count_solutions(P("x*y", 2), 3, 1) == 5


def test_count_solutions_matches_histogram():
    f = P("x^2 + y^3", 2)
    h = residue_histogram(f, 5, 2)
    assert count_solutions(f, 5, 2) == int(h.counts[0])


# ---------------------------------------------------------------- identities


def test_igusa_smooth_case():
    rep = igusa_identity_check(P("x", 1), 11, 2, ideal(1, "x"))
    assert rep.efz1 and rep.efzj


def test_igusa_square():
    rep = igusa_identity_check(P("x^2", 1), 7, 2, ideal(1, "x"))
    assert rep.efz1 and rep.efzj
    assert rep.orth in (True, "vacuous")


def test_igusa_cubic_all_three():
    rep = igusa_identity_check(
        P("x^3 + y^3", 2), 7, 3, ideal(2, "x", "y")
    )
    assert rep.efz1 and rep.efzj
    assert rep.orth is True  # a qualifying sample exists at this level
    assert rep.orth_value < 1e-9


def test_igusa_cubic_level_four():
    rep = igusa_identity_check(P("x^3 + y^3", 2), 7, 4, ideal(2, "x", "y"))
    assert rep.efz1 and rep.efzj
    assert rep.orth in (True, "vacuous")


def test_igusa_warns_below_threshold():
    rep = igusa_identity_check(P("x^3 + y^3", 2), 5, 2, ideal(2, "x", "y"))
    assert rep.warnings  # 5 <= 2 * deg * nvars = 12


def test_igusa_needs_m_at_least_two():
    with pytest.raises(ValueError):
        igusa_identity_check(P("x^2", 1), 7, 1, None)


# ---------------------------------------------------------------- decay


def test_decay_gauss_exact():
    prof = decay_profile(P("x^2", 1), 11, 3, lct_ref=Fraction(1, 2))
    assert abs(prof.sigma[2] - 0.5) < 1e-6
    assert abs(prof.sigma[3] - 0.5) < 1e-6
    assert not prof.flagged


def test_decay_smooth_is_infinite():
    prof = decay_profile(P("x", 1), 7, 3)
    assert prof.sigma[2] == math.inf
    assert prof.sigma[3] == math.inf


def test_decay_cubic_respects_threshold_bound():
    prof = decay_profile(P("x^3 + y^3", 2), 7, 3, lct_ref=Fraction(2, 3))
    for m in (2, 3):
        assert prof.sigma[m] >= 2 / 3 - 0.15
    assert not prof.flagged


def test_decay_exponent_is_the_one_sigma_rule():
    assert decay_exponent(0.5 + 0j, 5, 1) is None
    assert decay_exponent(0j, 5, 2) == math.inf
    assert decay_exponent(complex(9e-13, 0), 5, 2) == math.inf
    # exactly at the cutoff the value still counts as a measurement
    assert decay_exponent(complex(1e-12, 0), 5, 2) == -math.log(1e-12) / (2 * math.log(5))
    assert decay_exponent(complex(0, 5**-1.5), 5, 3) == pytest.approx(0.5)
