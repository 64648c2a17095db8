"""The stationary-phase recursions against brute-force enumeration.

The oracles below are the enumerations that residue histograms, jet counts
and the restricted-sum identity checks used before the recursion: every
point of (Z/p^m)^n, and every child jet at every t-degree level.  Counts
must agree exactly, and identity reports must print identically.  Jet counts
also agree with the level recursion one node at a time that the batched lift
replaced (``oracles.count_contact_jets_by_levels``).  The last
section keeps the two-path root-of-unity evaluation as the oracle of the one
``fsum`` path, which must return the same complex value bit for bit.
"""

import cmath
import math
import random
from itertools import product

import numpy as np
import pytest

from lctlab import arcs
from lctlab.arcs import count_contact_jets
from lctlab.expsum import (
    IgusaReport,
    ResidueHistogram,
    _eval_terms_mod,
    _histogram,
    _int_terms,
    _reduction_mask,
    default_min_p,
    exp_sum_from_histogram,
    exp_sum_restricted,
    igusa_identity_check,
)
from lctlab.jacobian import IdealGens, ideal_power, jacobian_ideal
from lctlab.polyring import Polynomial, parse_poly
from oracles import _poly_eval_jet, count_contact_jets_by_levels


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


def brute_igusa(f, p, m, z_gens=None, min_p=None, tol=1e-9):
    """igusa_identity_check by one scan of every point of (Z/p^m)^n."""
    n = f.nvars
    modulus = p**m
    pm1 = p ** (m - 1)
    warnings = []
    threshold = default_min_p(f) if min_p is None else min_p
    if p <= threshold:
        warnings.append(
            f"p={p} is not above the largeness threshold {threshold}; "
            "identity failures here are reported but not fatal"
        )
    terms = _int_terms(f)
    jf2 = ideal_power(jacobian_ideal(f), 2)
    zmask = _reduction_mask(z_gens, p)
    axes = np.indices((modulus,) * n).reshape(n, -1)
    grids = list(axes)
    shape = axes[0].shape
    vals = np.broadcast_to(_eval_terms_mod(terms, grids, modulus), shape)
    keep = np.ones(shape, dtype=bool) if zmask is None else np.broadcast_to(zmask(grids), shape)
    ordf = vals % pm1 == 0
    jvanish = np.ones(shape, dtype=bool)
    for g in jf2.gens:
        jv = np.broadcast_to(_eval_terms_mod(_int_terms(g), grids, modulus), shape)
        jvanish &= jv % pm1 == 0
    hist_z = np.bincount(vals[keep], minlength=modulus)
    hist_z_f = np.bincount(vals[keep & ordf], minlength=modulus)
    hist_z_fj = np.bincount(vals[keep & ordf & jvanish], minlength=modulus)
    hits = np.flatnonzero(ordf & ~jvanish)
    sample = tuple(int(a[hits[0]]) for a in axes) if len(hits) else None

    def value_of(delta_counts):
        return exp_sum_from_histogram(ResidueHistogram(p, m, n, delta_counts))

    d1 = abs(value_of(hist_z - hist_z_f))
    d2 = abs(value_of(hist_z_f - hist_z_fj))
    orth, orth_value = "vacuous", None
    if sample is not None:
        step = p ** ((m + 1) // 2)
        offs = np.indices((modulus // step,) * n).reshape(n, -1)
        coset = [(sample[i] + offs[i] * step) % modulus for i in range(n)]
        cvals = np.broadcast_to(_eval_terms_mod(terms, coset, modulus), offs[0].shape)
        acc = 0j
        for val in cvals.tolist():
            acc += cmath.exp(2j * math.pi * val / modulus)
        orth_value = abs(acc) / p ** (m * n)
        orth = orth_value < tol
    return IgusaReport(p, m, d1 < tol, d2 < tol, orth, d1, d2, orth_value, warnings)


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


def _level_case(seed):
    rng = random.Random(4000 + seed)
    n = rng.choice([1, 2, 3])
    p = rng.choice([2, 3, 5, 7])
    m = 2
    while p ** ((m + 1) * n) <= 50000 and rng.random() < 0.8:
        m += 1
    return _random_poly(rng, n, 4), p, m


@pytest.mark.parametrize(
    "case",
    [(P(text, n), p, m) for text, n, p, m in HISTOGRAM_CASES]
    + [_level_case(seed) for seed in range(40)],
)
def test_histogram_at_every_level_matches_enumeration(case):
    # tubes over residues mod p^j count the same points for every j < m
    f, p, m = case
    oracle = brute_histogram(f, p, m).tolist()
    for level in range(1, m):
        assert _histogram(f, p, m, level=level).counts.tolist() == oracle, level


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


@pytest.mark.parametrize("text,n,p,m,zs", RESTRICTED_CASES)
def test_restricted_census_at_every_level_matches_enumeration(text, n, p, m, zs):
    # the reduction mask depends on x mod p, so it also cuts finer grids
    f = P(text, n)
    mask = _reduction_mask(ideal(n, *zs), p)
    oracle = brute_histogram(f, p, m, mask_fn=mask).tolist()
    for level in range(1, m):
        assert _histogram(f, p, m, mask_fn=mask, level=level).counts.tolist() == oracle


# ---------------------------------------------------------------- identity checks


IGUSA_CASES = [
    ("x^2", 1, 5, 3, ()),
    ("x^3", 1, 3, 4, ()),
    ("3*x^2", 1, 3, 5, ()),
    ("x^2 + 1", 1, 5, 3, ("x^2 + 1",)),
    ("x^2 + y^3", 2, 5, 2, ()),
    ("x^3 + y^3", 2, 7, 2, ()),
    ("x^3 + y^3", 2, 2, 4, ("x", "y")),
    ("x*y", 2, 3, 3, ()),
    ("x^2 - y^3", 2, 3, 3, ("y",)),
    ("x^5 + y^5", 2, 11, 2, ()),
    ("x^4 + y^4", 2, 2, 5, ()),
    ("x^3 + y^3 + 4", 2, 5, 3, ()),
    ("9*x^2 + 3*y", 2, 3, 3, ("x",)),
    ("x^6 + y^4", 2, 2, 4, ()),
    ("x*y*z", 3, 2, 3, ()),
    ("x^2 + y^2 + z^2", 3, 3, 2, ("x",)),
    ("x^2*y + z^3", 3, 2, 3, ()),
    ("x^3 + y^3 + z^3", 3, 3, 2, ("x + y",)),
]


def _igusa_corpus():
    cases = [(P(t, n), p, m, ideal(n, *zs) if zs else None) for t, n, p, m, zs in IGUSA_CASES]
    for seed in range(54):
        rng = random.Random(3000 + seed)
        n = rng.choice([1, 2, 3])
        p = rng.choice([2, 3, 5, 7, 11])
        while p ** (2 * n) > 20000:
            p = rng.choice([2, 3, 5])
        m = 2
        while p ** ((m + 1) * n) <= 20000 and rng.random() < 0.7:
            m += 1
        f = _random_poly(rng, n, 4)
        while not any(any(mono) for mono in f.terms):
            f = _random_poly(rng, n, 4)
        z = IdealGens(n, [_random_poly(rng, n, 2)]) if rng.random() < 0.5 else None
        cases.append((f, p, m, z))
    return cases


IGUSA_CORPUS = _igusa_corpus()


@pytest.mark.parametrize("index", range(len(IGUSA_CORPUS)))
def test_igusa_report_matches_the_full_scan(index):
    f, p, m, z = IGUSA_CORPUS[index]
    assert repr(igusa_identity_check(f, p, m, z)) == repr(brute_igusa(f, p, m, z))


def test_igusa_corpus_covers_every_branch():
    reports = [brute_igusa(*case) for case in IGUSA_CORPUS]
    assert {f.nvars for f, _, _, _ in IGUSA_CORPUS} == {1, 2, 3}
    assert {z is None for _, _, _, z in IGUSA_CORPUS} == {True, False}
    sampled = sum(r.orth != "vacuous" for r in reports)
    assert 20 <= sampled <= len(reports) - 20
    assert any(not (r.efz1 and r.efzj) for r in reports)


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


# The batched lift against the recursion one node at a time that it replaced.


def _deepest_order(p, n):
    """The largest jet order m <= 3 with at most 10^6 jets in n variables."""
    return max(m for m in range(4) if m == 0 or p ** ((m + 1) * n) <= 10**6)


@pytest.mark.parametrize("index", range(len(JET_IDEALS)))
@pytest.mark.parametrize("p", [7, 11])
def test_jet_counts_match_the_level_recursion(index, p):
    gens = JET_IDEALS[index]
    m = _deepest_order(p, gens.nvars)
    for e in range(0, m + 2):
        assert count_contact_jets(gens, p, m, e) == count_contact_jets_by_levels(gens, p, m, e), e


@pytest.mark.parametrize("seed", range(40))
def test_jet_counts_match_the_level_recursion_seeded(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 4)
    s = rng.randint(1, 3)
    p = rng.choice([2, 3, 5, 7, 11])
    m = _deepest_order(p, n)
    gens = IdealGens(n, [_random_poly(rng, n, 3) for _ in range(s)])
    for e in range(0, m + 2):
        assert count_contact_jets(gens, p, m, e) == count_contact_jets_by_levels(gens, p, m, e), e


def test_jet_counts_row_reduce_only_the_singular_zeros(monkeypatch):
    calls = []
    real = arcs._rref_mod_p
    monkeypatch.setattr(arcs, "_rref_mod_p", lambda *args: calls.append(args) or real(*args))
    # 145 zeros mod 5, of which only the origin is singular
    det = ideal(4, "x1*x4 - 3*x2*x3")
    assert count_contact_jets(det, 5, 1, 2) == count_contact_jets_by_levels(det, 5, 1, 2)
    assert len(calls) == 1
    # with s > n no zero is smooth: the origin is the one common zero
    calls.clear()
    assert count_contact_jets(ideal(2, "x", "y", "x*y"), 7, 2, 3) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("block", [1, 2])
def test_jet_counts_do_not_depend_on_the_block(monkeypatch, block):
    sizes = []
    real = arcs._t_coefficients
    monkeypatch.setattr(arcs, "_BLOCK", block)
    monkeypatch.setattr(arcs, "_t_coefficients", lambda polys, ys, *args: sizes.append(len(ys)) or real(polys, ys, *args))
    cases = [
        (ideal(2, "x^3 + y^3"), 5, 3, 4),
        (ideal(4, "x1*x4 - x2*x3"), 3, 2, 3),
        (ideal(2, "x^2", "x*y", "y^2"), 3, 3, 4),
        (ideal(2, "x + y^2", "x + y^3"), 5, 3, 4),
    ]
    for gens, p, m, e in cases:
        sizes.clear()
        assert count_contact_jets(gens, p, m, e) == count_contact_jets_by_levels(gens, p, m, e)
        assert max(sizes) <= block < len(sizes)


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


def test_identity_check_refuses_counts_that_overflow_int64():
    # refused before any residue grid is built
    with pytest.raises(ValueError, match="int64"):
        igusa_identity_check(P("x + y + z", 3), 2, 22, budget=2**70)


# ---------------------------------------------------------------- root-of-unity evaluation


def two_path_exp_sum(hist):
    """The two-path exp_sum_from_histogram the one fsum path replaced, verbatim."""
    modulus = hist.modulus
    norm = hist.p ** (hist.m * hist.nvars)
    idx = np.nonzero(hist.counts)[0]
    if len(idx) <= (1 << 20):
        re = math.fsum(
            int(hist.counts[c]) * math.cos(2 * math.pi * int(c) / modulus) for c in idx
        )
        im = math.fsum(
            int(hist.counts[c]) * math.sin(2 * math.pi * int(c) / modulus) for c in idx
        )
    else:
        ang = 2 * np.pi * idx.astype(np.float64) / modulus
        w = hist.counts[idx].astype(np.float64)
        re = float(np.dot(w, np.cos(ang)))
        im = float(np.dot(w, np.sin(ang)))
    return complex(re / norm, im / norm)


def fsum_loop(hist):
    """The fsum branch of two_path_exp_sum at any number of nonzero bins."""
    modulus = hist.modulus
    norm = hist.p ** (hist.m * hist.nvars)
    idx = np.nonzero(hist.counts)[0]
    re = math.fsum(
        int(hist.counts[c]) * math.cos(2 * math.pi * int(c) / modulus) for c in idx
    )
    im = math.fsum(
        int(hist.counts[c]) * math.sin(2 * math.pi * int(c) / modulus) for c in idx
    )
    return complex(re / norm, im / norm)


def seeded_histograms():
    """Synthetic and census histograms with moduli up to 7^5: sparse and dense
    counts, signed ones, the identity-check deltas, all-zero and one-bin."""
    rng = np.random.default_rng(12)
    levels = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 8) if p**m <= 7**5]
    hists = []
    for k in range(100):
        p, m = levels[k % len(levels)]
        n = 1 + k % 3
        counts = rng.integers(-(10**6), 10**6, size=p**m)
        counts[rng.random(p**m) < rng.random()] = 0
        if k % 2:
            counts = np.abs(counts)
        hists.append(ResidueHistogram(p, m, n, counts))
    hists.append(ResidueHistogram(7, 5, 2, np.zeros(7**5, dtype=np.int64)))
    one = np.zeros(7**5, dtype=np.int64)
    one[4321] = 7**10
    hists.append(ResidueHistogram(7, 5, 2, one))
    for text, n, p, m in [("x^3 + y^3", 2, 7, 5), ("x^2*y - y^4", 2, 5, 4), ("x*y*z", 3, 3, 4)]:
        counts = _histogram(P(text, n), p, m, budget=p ** (m * n)).counts
        cut = np.zeros_like(counts)
        cut[:: p ** (m - 1)] = counts[:: p ** (m - 1)]
        hists += [ResidueHistogram(p, m, n, c) for c in (counts, counts - cut, cut - counts)]
    return hists


def test_one_fsum_path_equals_the_two_path_evaluation():
    hists = seeded_histograms()
    assert len(hists) >= 100
    for hist in hists:
        assert exp_sum_from_histogram(hist) == two_path_exp_sum(hist)


def test_one_fsum_path_equals_the_fsum_loop_past_two_to_the_twenty_bins():
    # the size the deleted numpy dot-product branch took
    rng = np.random.default_rng(20)
    counts = np.zeros(2**21, dtype=np.int64)
    bins = rng.choice(2**21, size=(1 << 20) + 1, replace=False)
    counts[bins] = rng.integers(1, 1000, size=bins.size) * rng.choice([-1, 1], size=bins.size)
    hist = ResidueHistogram(2, 21, 1, counts)
    assert np.count_nonzero(counts) == (1 << 20) + 1
    value = exp_sum_from_histogram(hist)
    assert value == fsum_loop(hist)
    assert abs(value - two_path_exp_sum(hist)) < 1e-12

