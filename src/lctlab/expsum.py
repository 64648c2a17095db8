"""Exponential sums over residue rings modulo prime powers.

The normalized sum

    E(p^m) = p^(-m n) * sum over x in (Z/p^m)^n of exp(2 pi i f(x) / p^m)

is computed exactly-first: a stationary-phase recursion builds the integer
histogram of residues of f, and floating point enters only in the final
evaluation at the p^m-th roots of unity with compensated summation.  That
makes |E| accurate to ~1e-12 regardless of how many points were counted,
and makes all the set-identity checks exact integer comparisons of
histograms followed by a single root-of-unity evaluation of the difference.

The recursion evaluates f and its gradient on the p^n residues x0 mod p.
Where the gradient is nonzero mod p, Hensel's lemma spreads the p^((m-1)n)
points of the tube x = x0 (mod p) evenly over the residues c = f(x0)
(mod p), so the tube is counted in closed form.  Only tubes over singular
residues recurse, through the exact Taylor shift f(x0 + p y) - f(x0),
which is divisible by p^2 there (Igusa's stationary-phase formula).

Restricted sums fix the reduction of x modulo p to the zero locus of a list
of polynomials; they are the discrete form of integrals over residue tubes.
The identity checks compare the restricted sum against the same sum cut to
high-vanishing loci of f and of (f) + J_f^2, and test the coset-vanishing
statement that drives them; all three are stated for residue characteristics
that are large for f, so below the threshold failures are warnings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .budget import check_budget
from .jacobian import IdealGens, ideal_power, jacobian_ideal
from .polyring import Polynomial, partial_derivative


def _int_terms(f: Polynomial):
    terms = []
    for mono, coeff in f.terms.items():
        if isinstance(coeff, Fraction):
            if coeff.denominator != 1:
                raise ValueError("exponential sums need integer coefficients")
            coeff = int(coeff)
        terms.append((mono, coeff))
    return terms


_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _axis_grids(nvars, first_value, m_mod):
    """Coordinate arrays: axis 0 is pinned to first_value, the rest run over
    the full residue range, broadcast into shape (1, M, M, ...)."""
    grids = [np.int64(first_value)]
    for axis in range(1, nvars):
        shape = [1] * nvars
        shape[axis] = m_mod
        grids.append(np.arange(m_mod, dtype=np.int64).reshape(shape))
    return grids


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


def _residue_grids(nvars, p):
    """Coordinate arrays of the p^n residues mod p, axis i running over x_i."""
    return [
        np.arange(p, dtype=np.int64).reshape([p if j == i else 1 for j in range(nvars)])
        for i in range(nvars)
    ]


def _taylor_shift(terms, x0, p):
    """Exact integer coefficients of f(x0 + p y) - f(x0), f given by terms."""
    out = {}
    for mono, coeff in terms:
        parts = {(): coeff}
        for xi, e in zip(x0, mono):
            parts = {
                a + (j,): c * math.comb(e, j) * xi ** (e - j) * p**j
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


def _tube_counts(f: Polynomial, p, m, mask_fn=None):
    """counts[c] = #{x in (Z/p^m)^n : f(x) = c mod p^m}.

    Each tube x = x0 (mod p) over a residue where the gradient is nonzero
    mod p holds p^((m-1)(n-1)) points per residue c = f(x0) mod p (Hensel).
    Over a singular x0 the shift f(x0 + p y) - f(x0) is p^k H(y) with
    k >= 2 (or zero), and the tube is the histogram of H at level m - k,
    each value taken p^((k-1)n) times, placed at f(x0) + p^k c.
    """
    n = f.nvars
    modulus = p**m
    terms = _int_terms(f)
    grids = _residue_grids(n, p)
    shape = (p,) * n
    vals = np.broadcast_to(_eval_terms_mod(terms, grids, modulus), shape)
    singular = np.ones(shape, dtype=bool)
    for i in range(1, n + 1):
        df = _int_terms(partial_derivative(f, i))
        singular &= np.broadcast_to(_eval_terms_mod(df, grids, p), shape) == 0
    keep = (
        np.ones(shape, dtype=bool)
        if mask_fn is None
        else np.broadcast_to(mask_fn(grids), shape)
    )
    smooth = np.bincount(vals[keep & ~singular] % p, minlength=p)
    counts = np.tile(smooth * p ** ((m - 1) * (n - 1)), p ** (m - 1))
    for x0 in np.argwhere(keep & singular):
        x0 = tuple(int(v) for v in x0)
        v = int(vals[x0])
        # k >= 2, so below m = 3 the whole tube sits on f(x0)
        shift = _taylor_shift(terms, x0, p) if m > 2 else {}
        k = min((_valuation(c, p) for c in shift.values()), default=m)
        if k >= m:
            counts[v] += p ** ((m - 1) * n)
            continue
        pk = p**k
        h = Polynomial(n, {a: c // pk for a, c in shift.items()})
        sub = _tube_counts(h, p, m - k)
        counts[(v + pk * np.arange(p ** (m - k))) % modulus] += sub * p ** ((k - 1) * n)
    return counts


def _histogram(f: Polynomial, p: int, m: int, budget=None, mask_fn=None):
    """Histogram of f over (Z/p^m)^n by the stationary-phase recursion.

    ``mask_fn(grids) -> bool array`` optionally restricts the census; it is
    applied to the residues mod p, so it must depend on x mod p only.
    """
    n = f.nvars
    volume = (p**m) ** n
    check_budget(volume, budget, what="residue enumeration", unit="points")
    if volume > _INT64_MAX:
        raise ValueError(f"{volume} points overflow the int64 histogram counts")
    counts = _tube_counts(f, p, m, mask_fn)
    return ResidueHistogram(p, m, n, counts)


def residue_histogram(f: Polynomial, p: int, m: int, budget=None) -> ResidueHistogram:
    """Exact residue histogram of a nonconstant integer polynomial."""
    if f.is_zero() or not any(any(mono) for mono in f.terms):
        raise ValueError("residue_histogram needs a nonconstant polynomial")
    hist = _histogram(f, p, m, budget)
    if not hist.check_total():
        raise AssertionError("residue histogram counts do not add up to p^(m n)")
    return hist


def exp_sum_from_histogram(hist: ResidueHistogram) -> complex:
    """Evaluate sum(counts[c] * exp(2 pi i c / p^m)) / p^(m n).

    Compensated summation over the at most p^m distinct residues; for very
    large moduli numpy's pairwise summation is used instead of fsum.
    """
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


def exp_sum(f: Polynomial, p: int, m: int, budget=None) -> complex:
    """The normalized complete sum E(p^m) for f."""
    return exp_sum_from_histogram(residue_histogram(f, p, m, budget))


def _reduction_mask(z_gens: Optional[IdealGens], p: int):
    """Mask selecting x whose reduction mod p lies on the zero locus of the
    given polynomials; None or an empty condition selects everything."""
    if z_gens is None:
        return None
    zterms = [_int_terms(g) for g in z_gens.gens]

    def mask(grids):
        red = [g % p for g in grids]
        keep = None
        for terms in zterms:
            v = _eval_terms_mod(terms, red, p)
            cond = v == 0
            keep = cond if keep is None else (keep & cond)
        if keep is None:
            raise AssertionError("empty restriction")
        return keep

    return mask


def exp_sum_restricted(
    f: Polynomial, p: int, m: int, z_gens: Optional[IdealGens] = None, budget=None
) -> complex:
    """E(p^m) restricted to points whose mod-p reduction satisfies z_gens = 0.

    The normalization stays p^(-m n) (the restriction shrinks the mass, not
    the measure), matching the integral it discretizes.  An empty or None
    restriction gives the complete sum.
    """
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
    tol: float = 1e-9,
) -> IgusaReport:
    """Check the restricted-sum identities for m >= 2.

    (1) the sum over the residue tube equals the same sum further cut to
        points where f vanishes to order >= m-1;
    (2) equals the sum cut to points where every generator of (f) + J_f^2
        vanishes to order >= m-1;
    (3) around a sampled point where f vanishes to order >= m-1 but the
        Jacobian-square ideal does not, the sum over the half-level coset
        vanishes ("vacuous" when no such point exists).

    Differences are formed exactly at histogram level and only then mapped
    through the roots of unity.  Small residue characteristics (p at or
    below 2 * deg(f) * nvars by default) are outside the stated range, so
    failures there are downgraded to warnings in the report.
    """
    if m < 2:
        raise ValueError("identity checks need m >= 2")
    n = f.nvars
    modulus = p**m
    check_budget(modulus**n, budget, what="residue enumeration", unit="points")
    warnings = []
    threshold = default_min_p(f) if min_p is None else min_p
    if p <= threshold:
        warnings.append(
            f"p={p} is not above the largeness threshold {threshold}; "
            "identity failures here are reported but not fatal"
        )
    terms = _int_terms(f)
    jf2 = ideal_power(jacobian_ideal(f), 2)
    jterms = [_int_terms(g) for g in jf2.gens]
    zmask = _reduction_mask(z_gens, p)
    pm1 = p ** (m - 1)

    hist_z = np.zeros(modulus, dtype=np.int64)
    hist_z_f = np.zeros(modulus, dtype=np.int64)
    hist_z_fj = np.zeros(modulus, dtype=np.int64)
    sample = None

    def scan(grids, shape, lead):
        nonlocal sample
        vals = np.broadcast_to(_eval_terms_mod(terms, grids, modulus), shape)
        keep = (
            np.broadcast_to(zmask(grids), shape)
            if zmask is not None
            else np.ones(shape, dtype=bool)
        )
        ordf = vals % pm1 == 0
        jvanish = np.ones(shape, dtype=bool)
        for jt in jterms:
            jv = np.broadcast_to(_eval_terms_mod(jt, grids, modulus), shape)
            jvanish &= jv % pm1 == 0
        h0 = np.bincount(vals[keep], minlength=modulus)
        h1 = np.bincount(vals[keep & ordf], minlength=modulus)
        h2 = np.bincount(vals[keep & ordf & jvanish], minlength=modulus)
        if sample is None:
            hits = np.argwhere(ordf & ~jvanish)
            if len(hits):
                point = tuple(int(v) for v in hits[0])
                sample = point if lead is None else (lead,) + point[1:]
        return h0, h1, h2

    if n == 1:
        xs = np.arange(modulus, dtype=np.int64)
        h0, h1, h2 = scan([xs], xs.shape, lead=None)
        hist_z += h0
        hist_z_f += h1
        hist_z_fj += h2
    else:
        shape = tuple(modulus if i > 0 else 1 for i in range(n))
        for x1 in range(modulus):
            grids = _axis_grids(n, x1, modulus)
            h0, h1, h2 = scan(grids, shape, lead=x1)
            hist_z += h0
            hist_z_f += h1
            hist_z_fj += h2
    norm = p ** (m * n)

    def value_of(delta_counts):
        return exp_sum_from_histogram(ResidueHistogram(p, m, n, delta_counts))

    d1 = abs(value_of(hist_z - hist_z_f))
    d2 = abs(value_of(hist_z_f - hist_z_fj))
    efz1 = d1 < tol
    efzj = d2 < tol

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
        orth = orth_value < tol

    return IgusaReport(
        p=p,
        m=m,
        efz1=efz1,
        efzj=efzj,
        orth=orth,
        delta_efz1=d1,
        delta_efzj=d2,
        orth_value=orth_value,
        warnings=warnings,
    )


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


def decay_profile(
    f: Polynomial,
    p: int,
    mmax: int,
    lct_ref=None,
    budget=None,
    slack: float = 0.15,
) -> ExpSumProfile:
    """E(p^m) and decay exponents for m = 1..mmax."""
    values, abs_values, sigma = {}, {}, {}
    flagged = []
    for m in range(1, mmax + 1):
        e = exp_sum(f, p, m, budget)
        values[m] = e
        a = abs(e)
        abs_values[m] = a
        if m >= 2:
            if a < _ZERO_CUTOFF:
                sigma[m] = math.inf
            else:
                sigma[m] = -math.log(a) / (m * math.log(p))
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
