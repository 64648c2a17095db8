"""Exponential sums over residue rings modulo prime powers.

The normalized sum

    E(p^m) = p^(-m n) * sum over x in (Z/p^m)^n of exp(2 pi i f(x) / p^m)

is computed exactly-first: a stationary-phase recursion builds the integer
histogram of residues of f, and floating point enters only in the final
evaluation at the p^m-th roots of unity: libm cosines and sines of the
nonzero bins, summed by one exactly rounded ``math.fsum`` at every size.
That makes |E| accurate to ~1e-12 regardless of how many points were
counted, and makes all the set-identity checks exact integer comparisons of
histograms followed by a single root-of-unity evaluation of the difference.

Residue grids have one evaluator, ``_eval_terms_mod``; ``_vanishing`` on top
of it gives every zero locus (singular residues, restriction masks, the cuts
of the identity checks and, in ``arcs``, the zeros of the generators).

One census, ``_tube_counts``, counts every histogram.  It evaluates f and
its gradient on the residues x0 mod q = p^level (level 1 unless a caller
needs a finer grid).  Where the gradient is nonzero mod p, Hensel's lemma
spreads the p^((m-level)n) points of the tube x = x0 (mod q) evenly over
the residues c = f(x0) (mod q), so the tube is counted in closed form.
Only tubes over singular residues recurse, through the exact Taylor shift
f(x0 + q y) - f(x0), which is divisible by p^(level+1) there (Igusa's
stationary-phase formula); no code enumerates (Z/p^m)^n.

Restricted sums fix the reduction of x modulo p to the zero locus of a list
of polynomials; they are the discrete form of integrals over residue tubes.
The identity checks compare the restricted sum against the same sum cut to
high-vanishing loci of f and of (f) + J_f^2, and test the coset-vanishing
statement that drives them; all three are stated for residue characteristics
that are large for f, so below the threshold failures are warnings.  Both
cuts depend on x mod p^(m-1) only: the census at level m - 1 counts them.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .budget import check_budget
from .jacobian import IdealGens, ideal_power, jacobian_ideal
from .polyring import Polynomial, partial_derivative


def _int_terms(f: Polynomial):
    # a Polynomial keeps integral coefficients as ints, so a Fraction is not one
    if any(isinstance(c, Fraction) for c in f.terms.values()):
        raise ValueError("exponential sums and jet counts need integer coefficients")
    return list(f.terms.items())


_INT64_MAX = int(np.iinfo(np.int64).max)
_TOL = 1e-9  # an identity holds when its difference of normalized sums is below this


def _eval_terms_mod(terms, grids, modulus):
    """Evaluate a term list on broadcastable coordinate arrays, mod modulus.

    Products of two residues must fit in int64, so a modulus M with
    (M - 1)^2 > 2^63 - 1 is refused rather than silently wrapped.
    """
    if (modulus - 1) ** 2 > _INT64_MAX:
        raise ValueError(
            f"modulus {modulus} is too large for int64 residue arithmetic"
        )
    total = None
    for mono, coeff in terms:
        c = coeff % modulus
        if c == 0:
            continue
        term = None
        for g, e in zip(grids, mono):
            if e:
                pw = g % modulus
                for _ in range(e - 1):
                    pw = (pw * (g % modulus)) % modulus
                term = pw if term is None else (term * pw) % modulus
        if term is None:
            piece = np.full(1, c, dtype=np.int64)
        else:
            piece = (term * c) % modulus
        total = piece if total is None else (total + piece) % modulus
    if total is None:
        return np.zeros(1, dtype=np.int64)
    return total


def _vanishing(term_lists, grids, modulus):
    """Broadcastable mask of the residues where every term list vanishes mod
    modulus (all of them when there is no term list)."""
    mask = np.ones(1, dtype=bool)
    for terms in term_lists:
        mask = mask & (_eval_terms_mod(terms, grids, modulus) == 0)
    return mask


@dataclass
class ResidueHistogram:
    """Exact counts of {x : f(x) = c mod p^m}, one bin per residue c."""

    p: int
    m: int
    nvars: int
    counts: np.ndarray

    @property
    def modulus(self) -> int:
        return self.p**self.m

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def check_total(self) -> bool:
        return self.total == self.p ** (self.m * self.nvars)


def _residue_grids(nvars, q):
    """Coordinate arrays of the q^n residues mod q, axis i running over x_i."""
    return [
        np.arange(q, dtype=np.int64).reshape([q if j == i else 1 for j in range(nvars)])
        for i in range(nvars)
    ]


def _taylor_shift(terms, x0, q):
    """Exact integer coefficients of f(x0 + q y) - f(x0), f given by terms."""
    out = {}
    for mono, coeff in terms:
        parts = {(): coeff}
        for xi, e in zip(x0, mono):
            parts = {
                a + (j,): c * math.comb(e, j) * xi ** (e - j) * q**j
                for a, c in parts.items()
                for j in range(e + 1)
            }
        for a, c in parts.items():
            if any(a):
                out[a] = out.get(a, 0) + c
    return {a: c for a, c in out.items() if c}


def _valuation(c, p):
    k = 0
    while c % p == 0:
        c //= p
        k += 1
    return k


def _tube_counts(f: Polynomial, p, m, mask_fn=None, level=1):
    """counts[c] = #{x in (Z/p^m)^n : f(x) = c mod p^m}, over residues mod q.

    The census runs over the tubes x = x0 (mod q), q = p^level.  A tube over
    a residue where the gradient is nonzero mod p holds p^((m-level)(n-1))
    points per residue c = f(x0) mod q (Hensel).  Over a singular x0 the
    shift f(x0 + q y) - f(x0) is p^k H(y) with k > level (or zero), and the
    tube is the histogram of H at level m - k, each value taken
    p^((k-level)n) times, placed at f(x0) + p^k c.  So for m <= level + 1
    every singular tube sits on f(x0), and nothing recurses.
    """
    n = f.nvars
    modulus = p**m
    q = p**level
    terms = _int_terms(f)
    grids = _residue_grids(n, q)
    shape = (q,) * n
    vals = np.broadcast_to(_eval_terms_mod(terms, grids, modulus), shape)
    grad = [_int_terms(partial_derivative(f, i)) for i in range(1, n + 1)]
    singular = np.broadcast_to(_vanishing(grad, grids, p), shape)
    keep = np.broadcast_to(True if mask_fn is None else mask_fn(grids), shape)
    smooth = np.bincount(vals[keep & ~singular] % q, minlength=q)
    counts = np.tile(smooth * p ** ((m - level) * (n - 1)), p ** (m - level))
    singular = singular & keep
    if m <= level + 1:
        counts += np.bincount(vals[singular], minlength=modulus) * p ** ((m - level) * n)
        return counts
    for x0 in np.argwhere(singular):
        x0 = tuple(int(v) for v in x0)
        v = int(vals[x0])
        shift = _taylor_shift(terms, x0, q)
        k = min((_valuation(c, p) for c in shift.values()), default=m)
        if k >= m:
            counts[v] += p ** ((m - level) * n)
            continue
        pk = p**k
        h = Polynomial(n, {a: c // pk for a, c in shift.items()})
        sub = _tube_counts(h, p, m - k)
        counts[(v + pk * np.arange(p ** (m - k))) % modulus] += sub * p ** ((k - level) * n)
    return counts


def _require_prime(p):
    """Refuse a p that is not prime: Hensel lifting and the linear algebra
    mod p need the field Z/p.  Called after the budget check, which bounds
    p and so the trial division."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")


def _check_volume(p, m, n, budget):
    """Refuse a census of (Z/p^m)^n at a level m below 1, over the budget,
    for a p that is not prime, or past int64 counts."""
    if m < 1:
        raise ValueError(f"the level m must be at least 1, got {m}")
    volume = p ** (m * n)
    check_budget(volume, budget, what="residue enumeration", unit="points")
    _require_prime(p)
    if volume > _INT64_MAX:
        raise ValueError(f"{volume} points overflow the int64 histogram counts")


def _histogram(f: Polynomial, p: int, m: int, budget=None, mask_fn=None, level=1):
    """Histogram of f over (Z/p^m)^n by the stationary-phase recursion.

    ``mask_fn(grids) -> bool array`` optionally restricts the census; it is
    applied to the residues mod p^level, so it must depend on x mod p^level
    only.
    """
    _check_volume(p, m, f.nvars, budget)
    return ResidueHistogram(p, m, f.nvars, _tube_counts(f, p, m, mask_fn, level))


def _require_nonconstant(f: Polynomial, caller: str) -> None:
    if f.is_zero() or not any(any(mono) for mono in f.terms):
        raise ValueError(f"{caller} needs a nonconstant polynomial")


def residue_histogram(f: Polynomial, p: int, m: int, budget=None) -> ResidueHistogram:
    """Exact residue histogram of a nonconstant integer polynomial."""
    _require_nonconstant(f, "residue_histogram")
    hist = _histogram(f, p, m, budget)
    if not hist.check_total():
        raise AssertionError("residue histogram counts do not add up to p^(m n)")
    return hist


def exp_sum_from_histogram(hist: ResidueHistogram) -> complex:
    """Evaluate sum(counts[c] * exp(2 pi i c / p^m)) / p^(m n).

    One path for every size: the angles 2 pi c / p^m and the float weights
    of the nonzero bins are formed in numpy (the same IEEE products and
    quotients as scalar code), the cosines and sines are libm's
    ``math.cos``/``math.sin``, and each of the two sums of weight times
    root is an exactly rounded ``math.fsum``.
    """
    norm = hist.p ** (hist.m * hist.nvars)
    idx = np.nonzero(hist.counts)[0]
    ang = (2 * math.pi * idx.astype(np.float64) / hist.modulus).tolist()
    w = hist.counts[idx].astype(np.float64).tolist()
    re = math.fsum(map(operator.mul, w, map(math.cos, ang)))
    im = math.fsum(map(operator.mul, w, map(math.sin, ang)))
    return complex(re / norm, im / norm)


def exp_sum(f: Polynomial, p: int, m: int, budget=None) -> complex:
    """The normalized complete sum E(p^m) for f."""
    return exp_sum_from_histogram(residue_histogram(f, p, m, budget))


def _reduction_mask(z_gens: Optional[IdealGens], p: int):
    """Mask selecting x whose reduction mod p lies on the zero locus of the
    given polynomials; None or an empty condition selects everything."""
    if z_gens is None:
        return None
    zterms = [_int_terms(g) for g in z_gens.gens]
    return lambda grids: _vanishing(zterms, grids, p)


def exp_sum_restricted(
    f: Polynomial, p: int, m: int, z_gens: Optional[IdealGens] = None, budget=None
) -> complex:
    """E(p^m) restricted to points whose mod-p reduction satisfies z_gens = 0.

    The normalization stays p^(-m n) (the restriction shrinks the mass, not
    the measure), matching the integral it discretizes.  An empty or None
    restriction gives the complete sum.
    """
    _require_nonconstant(f, "exp_sum_restricted")
    if z_gens is not None and z_gens.nvars != f.nvars:
        raise ValueError("restriction nvars mismatch")
    mask = _reduction_mask(z_gens, p)
    hist = _histogram(f, p, m, budget, mask_fn=mask)
    return exp_sum_from_histogram(hist)


def count_solutions(f: Polynomial, p: int, k: int, budget=None) -> int:
    """N_k: the number of solutions of f = 0 in (Z/p^k)^n, exactly."""
    hist = residue_histogram(f, p, k, budget)
    return int(hist.counts[0])


# ----------------------------------------------------------------------
# identity checks


def default_min_p(f: Polynomial) -> int:
    return 2 * int(f.total_degree()) * f.nvars


@dataclass
class IgusaReport:
    """Results of the three restricted-sum identities at one (f, p, m)."""

    p: int
    m: int
    efz1: bool
    efzj: bool
    orth: object  # True / False / "vacuous"
    delta_efz1: float
    delta_efzj: float
    orth_value: Optional[float]
    warnings: list = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.efz1 and self.efzj and self.orth in (True, "vacuous")


def igusa_identity_check(
    f: Polynomial,
    p: int,
    m: int,
    z_gens: Optional[IdealGens] = None,
    budget=None,
    min_p: Optional[int] = None,
) -> IgusaReport:
    """Check the restricted-sum identities for m >= 2.

    (1) the sum over the residue tube equals the same sum further cut to
        points where f vanishes to order >= m-1;
    (2) equals the sum cut to points where every generator of (f) + J_f^2
        vanishes to order >= m-1;
    (3) around a sampled point where f vanishes to order >= m-1 but the
        Jacobian-square ideal does not, the sum over the half-level coset
        vanishes ("vacuous" when no such point exists).

    The three histograms come from the tube census: the restricted one at
    level 1, cut (1) as its bins c = 0 mod p^(m-1), and cut (2) at level
    m - 1 with both cuts read on the residues mod p^(m-1); the sample point
    is the lexicographically first such residue.  Differences are formed
    exactly at histogram level and only then mapped through the roots of
    unity.  Small residue characteristics (p at or below 2 * deg(f) * nvars
    by default) are outside the stated range, so failures there are
    downgraded to warnings in the report.
    """
    if m < 2:
        raise ValueError("identity checks need m >= 2")
    _require_nonconstant(f, "igusa_identity_check")
    if z_gens is not None and z_gens.nvars != f.nvars:
        raise ValueError("restriction nvars mismatch")
    n = f.nvars
    modulus = p**m
    _check_volume(p, m, n, budget)
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

    # both cuts depend on x mod q only, so they are read on the residues mod q
    q = p ** (m - 1)
    grids = _residue_grids(n, q)
    shape = (q,) * n
    fcut = np.broadcast_to(_vanishing([terms], grids, q), shape)
    jcut = _vanishing([_int_terms(g) for g in jf2.gens], grids, q)
    # every x is componentwise >= x mod q, so the first point of the cut
    # (Z/p^m)^n in lexicographic order is its first residue mod q
    off_j = (fcut & ~jcut).ravel()
    first = int(off_j.argmax())
    sample = tuple(map(int, np.unravel_index(first, shape))) if off_j[first] else None
    cut = fcut & jcut if zmask is None else fcut & jcut & zmask(grids)

    hist_z = _tube_counts(f, p, m, zmask)
    hist_z_f = np.zeros_like(hist_z)
    hist_z_f[::q] = hist_z[::q]  # cut (1) keeps the values c = 0 mod q
    # the census at level m - 1 runs over these same residues mod q
    hist_z_fj = _tube_counts(f, p, m, lambda _: cut, level=m - 1)
    norm = p ** (m * n)

    def value_of(delta_counts):
        return exp_sum_from_histogram(ResidueHistogram(p, m, n, delta_counts))

    d1 = abs(value_of(hist_z - hist_z_f))
    d2 = abs(value_of(hist_z_f - hist_z_fj))

    orth = "vacuous"
    orth_value = None
    if sample is not None:
        mbar = (m + 1) // 2  # half level, rounded up
        step = p**mbar
        reps = modulus // step
        # the coset points in lexicographic order of their offsets
        offs = np.indices((reps,) * n).reshape(n, -1)
        coset = [(sample[i] + offs[i] * step) % modulus for i in range(n)]
        vals = np.broadcast_to(_eval_terms_mod(terms, coset, modulus), offs[0].shape)
        acc = 0j
        for val in vals.tolist():
            acc += cmath.exp(2j * math.pi * val / modulus)
        orth_value = abs(acc) / norm
        orth = orth_value < _TOL

    return IgusaReport(p, m, d1 < _TOL, d2 < _TOL, orth, d1, d2, orth_value, warnings)


# ----------------------------------------------------------------------
# decay profiles


@dataclass
class ExpSumProfile:
    """Per-level values of E(p^m) and the decay exponents sigma_m.

    sigma_m = -log|E(p^m)| / (m log p) for m >= 2 (level 1 is excluded: the
    unspecified constant in the decay bound dominates there).  A vanishing
    |E| gives the +inf sentinel.  When a reference threshold is supplied,
    levels with sigma_m < reference - slack are flagged; the bound carries
    an unknown constant, so flags are reported, never fatal.
    """

    p: int
    values: dict  # m -> complex
    abs_values: dict  # m -> float
    sigma: dict  # m (>= 2) -> float or math.inf
    lct_ref: Optional[Fraction]
    slack: float
    flagged: list

    def as_rows(self):
        rows = []
        for m in sorted(self.values):
            e = self.values[m]
            rows.append(
                {
                    "p": self.p,
                    "m": m,
                    "re": e.real,
                    "im": e.imag,
                    "abs": self.abs_values[m],
                    "sigma_m": self.sigma.get(m),
                }
            )
        return rows


_ZERO_CUTOFF = 1e-12  # |E| below this is treated as exact cancellation


def decay_exponent(e: complex, p: int, m: int) -> Optional[float]:
    """sigma_m = -log|E| / (m log p) for m >= 2, +inf for |E| below the
    cancellation cutoff, None at level 1."""
    if m < 2:
        return None
    a = abs(e)
    return math.inf if a < _ZERO_CUTOFF else -math.log(a) / (m * math.log(p))


def decay_profile(
    f: Polynomial,
    p: int,
    mmax: int,
    lct_ref=None,
    budget=None,
    slack: float = 0.15,
) -> ExpSumProfile:
    """E(p^m) and decay exponents for m = 1..mmax; mmax must be at least 1."""
    if mmax < 1:
        raise ValueError(f"the top level mmax must be at least 1, got {mmax}")
    values, abs_values, sigma = {}, {}, {}
    flagged = []
    for m in range(1, mmax + 1):
        e = exp_sum(f, p, m, budget)
        values[m] = e
        abs_values[m] = abs(e)
        if m >= 2:
            sigma[m] = decay_exponent(e, p, m)
            if lct_ref is not None and sigma[m] < float(lct_ref) - slack:
                flagged.append(m)
    return ExpSumProfile(
        p=p,
        values=values,
        abs_values=abs_values,
        sigma=sigma,
        lct_ref=Fraction(lct_ref) if lct_ref is not None else None,
        slack=slack,
        flagged=flagged,
    )
