"""The stationary-phase recursions against brute-force enumeration.

The two oracles below are the enumerations that residue histograms and jet
counts used before the recursion: every point of (Z/p^m)^n, and every child
jet at every t-degree level.  Counts must agree exactly.
"""

import random
from itertools import product

import numpy as np
import pytest

from lctlab.arcs import _poly_eval_jet, count_contact_jets
from lctlab.expsum import (
    ResidueHistogram,
    _eval_terms_mod,
    _histogram,
    _int_terms,
    _reduction_mask,
    exp_sum_from_histogram,
    exp_sum_restricted,
)
from lctlab.jacobian import IdealGens
from lctlab.polyring import Polynomial, parse_poly


def P(text, nvars):
    return parse_poly(text, nvars)


def ideal(nvars, *texts):
    return IdealGens(nvars, [P(t, nvars) for t in texts])


# ---------------------------------------------------------------- oracles


def brute_histogram(f, p, m, mask_fn=None):
    """counts[c] = #{x in (Z/p^m)^n : f(x) = c}, by enumerating every point."""
    modulus = p**m
    n = f.nvars
    axes = np.indices((modulus,) * n).reshape(n, -1)
    grids = list(axes)
    vals = np.broadcast_to(_eval_terms_mod(_int_terms(f), grids, modulus), axes[0].shape)
    if mask_fn is not None:
        vals = vals[np.broadcast_to(mask_fn(grids), vals.shape)]
    return np.bincount(vals, minlength=modulus)


def brute_jets(gens, p, m, e):
    """Contact-locus count trying all p^n children of every surviving node."""
    n = gens.nvars
    coords = [[0] * (m + 1) for _ in range(n)]

    def level(ell):
        if ell >= e:
            return p ** (n * (m + 1 - ell))
        count = 0
        for combo in product(range(p), repeat=n):
            for var in range(n):
                coords[var][ell] = combo[var]
            if all(_poly_eval_jet(g, coords, p, ell + 1)[ell] == 0 for g in gens.gens):
                count += level(ell + 1)
        for var in range(n):
            coords[var][ell] = 0
        return count

    return level(0)


# ---------------------------------------------------------------- histograms


HISTOGRAM_CASES = [
    ("x^3", 1, 3, 5),  # p | deg f: the gradient vanishes mod 3 everywhere
    ("3*x^2", 1, 3, 4),
    ("x^2", 1, 2, 6),
    ("x^2 + 1", 1, 5, 3),
    ("x^3 + y^3", 2, 7, 3),
    ("x^3 + y^3 + 4", 2, 5, 3),
    ("x^2 + y^2", 2, 2, 5),
    ("x^2 - y^3", 2, 5, 3),
    ("x^6 + y^4", 2, 2, 5),
    ("9*x^2 + 3*y", 2, 3, 4),
    ("x^2*y + y^4 + 5", 2, 3, 3),
    ("x*y", 2, 7, 2),
    ("x*y*z", 3, 3, 3),  # non-isolated
    ("x*y*z", 3, 2, 4),
    ("x^2*y + z^3", 3, 3, 2),
    ("x^3 + y^3 + z^3", 3, 2, 3),
]


@pytest.mark.parametrize("text,n,p,m", HISTOGRAM_CASES)
def test_histogram_matches_enumeration(text, n, p, m):
    f = P(text, n)
    assert _histogram(f, p, m).counts.tolist() == brute_histogram(f, p, m).tolist()


def _random_poly(rng, n, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, degree) for _ in range(n))
        terms[mono] = rng.choice([1, -1, 2, 3, 5, 6, 9, 12, 25, -27])
    return Polynomial(n, terms)


@pytest.mark.parametrize("seed", range(24))
def test_histogram_matches_enumeration_seeded(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    p = rng.choice([2, 3, 5, 7])
    top = {1: 6, 2: 3, 3: 3 if p <= 3 else 2}[n]
    m = rng.randint(2, top)
    f = _random_poly(rng, n, 4)
    assert _histogram(f, p, m).counts.tolist() == brute_histogram(f, p, m).tolist()


RESTRICTED_CASES = [
    ("x^3 + y^3", 2, 5, 3, ("x", "y")),
    ("x^3 + y^3", 2, 7, 2, ("x + y",)),
    ("x^2 - y^3", 2, 3, 4, ("y",)),
    ("x*y*z", 3, 2, 3, ("x*y",)),
    ("x^3", 1, 3, 4, ("x",)),
    ("x^2 + 2", 1, 5, 3, ("x^2 - 3",)),
]


@pytest.mark.parametrize("text,n,p,m,zs", RESTRICTED_CASES)
def test_restricted_sum_matches_enumeration(text, n, p, m, zs):
    f = P(text, n)
    z = ideal(n, *zs)
    mask = _reduction_mask(z, p)
    counts = _histogram(f, p, m, mask_fn=mask).counts
    oracle = brute_histogram(f, p, m, mask_fn=mask)
    assert counts.tolist() == oracle.tolist()
    expected = exp_sum_from_histogram(ResidueHistogram(p, m, n, oracle))
    assert exp_sum_restricted(f, p, m, z) == expected


# ---------------------------------------------------------------- jets


JET_IDEALS = [
    ideal(1, "x^2"),
    ideal(2, "x^3 + y^3"),
    ideal(2, "x*y"),
    ideal(2, "x^2 - y^3"),
    ideal(2, "x", "y", "x*y"),  # s > n, full column rank at the origin
    ideal(2, "x^2", "x*y", "y^2"),  # s > n, Jacobian zero at the origin
    ideal(2, "x + y^2", "x + y^3"),  # 0 < rank < s at the origin
    ideal(2, "x + y + x^2", "x + y - y^2"),  # kernel (1, -1) of rank 1 < s
    ideal(3, "x*y", "y*z", "x*z"),  # rank 2 of 3 along the axes
    ideal(3, "x - y^2", "x^2 - y*z"),
    ideal(4, "x1*x4 - x2*x3"),
]


@pytest.mark.parametrize("index", range(len(JET_IDEALS)))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_jet_counts_match_enumeration(index, p):
    gens = JET_IDEALS[index]
    m = 2 if gens.nvars * p <= 6 else 1
    for e in range(0, m + 2):
        assert count_contact_jets(gens, p, m, e) == brute_jets(gens, p, m, e), e


@pytest.mark.parametrize("seed", range(16))
def test_jet_counts_match_enumeration_seeded(seed):
    rng = random.Random(1000 + seed)
    n = rng.choice([1, 2, 2, 3])
    s = rng.randint(1, 3)
    p = rng.choice([2, 3, 5]) if n < 3 else rng.choice([2, 3])
    m = rng.randint(1, 3 if n == 1 else 2)
    gens = IdealGens(n, [_random_poly(rng, n, 3) for _ in range(s)])
    for e in range(0, m + 2):
        assert count_contact_jets(gens, p, m, e) == brute_jets(gens, p, m, e), e


# ---------------------------------------------------------------- int64 guard


def test_eval_refuses_moduli_that_overflow_int64():
    # (M - 1)^2 fits in int64 up to M = 3037000500 and not one further
    x = np.array([3037000499], dtype=np.int64)
    terms = [((2,), 1)]
    assert _eval_terms_mod(terms, [x], 3037000500).tolist() == [1]
    with pytest.raises(ValueError, match="int64"):
        _eval_terms_mod(terms, [x], 3037000501)


def test_histogram_refuses_counts_that_overflow_int64():
    # the recursion would finish, but 2^66 points do not fit an int64 bin
    with pytest.raises(ValueError, match="int64"):
        _histogram(P("x + y + z", 3), 2, 22, budget=2**70)
