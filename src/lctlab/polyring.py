"""Exact sparse multivariate polynomials and truncated power series.

A polynomial is a finite map from exponent tuples to exact rational
coefficients.  Coefficients are Python ints whenever they are integral and
``fractions.Fraction`` otherwise; all arithmetic is exact, there is no
floating point anywhere in this module.

A :class:`TruncatedSeries` is a polynomial representative of a power series
modulo ``m^N`` (``m`` the maximal ideal generated by the variables), carrying
the truncation order ``N``.  Every stored monomial has total degree < N and
arithmetic re-truncates.

The module also provides the small calculus used throughout the package:
formal partial derivatives, divided-power operators ``D^alpha`` (derivatives
divided by factorials, defined through binomial coefficients so they stay
integral), substitution of series tuples into polynomials, square roots and
reciprocals of unit series, and a strict text-format parser.

Every product is one kernel, :func:`dot`: one accumulator over pairs a*b,
exponents packed into int keys at one fixed base through a memoized codec,
each operand packed once as int numerators over one denominator.  The
packing loop, :func:`_monomial_key`, is the one the row builders of
:mod:`lctlab.jacobian` pack with too.  Every
Taylor or composition sum is one :func:`dot` over exponents from one
enumerator, :func:`monomials_below`, with products ``g^alpha`` of a series
tuple from one memoized power cache, :class:`_Powers`.  Each product is
built only to the precision at which it is read: ``g^alpha`` paired with a
factor of multiplicity m in a sum cut at m^N is asked for mod m^(N - m), and
built from ``g^(alpha - e_i)`` mod m^(N - m - mult g_i), and ``g^(e_i)`` is
g_i itself, with no product by 1.  A substitution along images tangent to
the identity, x_i + h_i, is the Taylor expansion along the shifts h; other
linear parts compose through the image powers.  What the composition
already knows is kept: each polynomial records a cut below which its terms
lie, so re-truncating at or above it costs nothing, and :func:`dot` skips a
pair with a zero operand before packing it.

Printing is canonical: terms are ordered by graded reverse lexicographic
order (highest degree first), so equal polynomials always print identically
and ``parse_poly(poly_to_string(f)) == f``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, Union

Coeff = Union[int, Fraction]

DEFAULT_ORDER = 16


def _norm_coeff(c):
    """Collapse integral Fractions to int so integer-only pipelines stay fast."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _grevlex_key(mono):
    # Sorting with reverse=True puts higher total degree first and breaks
    # ties grevlex-style (the variable with the smallest index wins).
    return (sum(mono), tuple(-e for e in reversed(mono)))


class MultiplicityBound:
    """Indeterminate multiplicity marker for a series that vanishes mod m^N.

    A truncated series with no stored terms only certifies multiplicity
    ``>= bound``; this marker keeps that distinct from the exact +inf of the
    zero polynomial.
    """

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __repr__(self):
        return f">= {self.bound}"

    def __eq__(self, other):
        return isinstance(other, MultiplicityBound) and self.bound == other.bound

    def __hash__(self):
        return hash(("MultiplicityBound", self.bound))


class Polynomial:
    """Sparse exact-rational polynomial in ``nvars`` variables.

    Immutable by convention: no method mutates ``terms`` after construction,
    so values are safe to share across threads.  Three facts are cached on
    first use, and each describes the terms without changing them, so
    sharing stays safe (two threads can only both record a true fact): the
    multiplicity ``_mult``; the packing ``_pack`` that :func:`dot` reads;
    and the cut ``_cut``, a degree that every term lies below.  :func:`dot`
    records its cut and :meth:`truncate` its order, also when nothing was
    cut; a variable records 2, a constant 1 and :func:`partial_derivative`
    one less than its operand's; sums and negations carry it; a truncation
    at or above it returns the polynomial itself without reading a term.
    """

    __slots__ = ("nvars", "terms", "_mult", "_pack", "_cut")

    def __init__(self, nvars: int, terms: Mapping):
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
            c = _norm_coeff(coeff)
            if c:
                clean[tuple(mono)] = c
        self.nvars, self.terms, self._mult, self._pack, self._cut = nvars, clean, None, None, None

    @classmethod
    def _make(cls, nvars: int, terms: dict, cut=None) -> "Polynomial":
        """Wrap clean terms (nonzero ints and non-integral Fractions) unchecked;
        ``cut``, if given, is a degree every term lies below."""
        p = object.__new__(cls)
        p.nvars, p.terms, p._mult, p._pack, p._cut = nvars, terms, None, None, cut
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        p = cls(nvars, {(0,) * nvars: Fraction(value)})
        p._cut = 1
        return p

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable ``x_index`` (1-indexed)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = [0] * nvars
        mono[index - 1] = 1
        return cls._make(nvars, {tuple(mono): 1}, 2)

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): coeff})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self):
        """Largest total degree of a term, -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(map(sum, self.terms))

    def multiplicity(self):
        """Smallest total degree of a nonzero term, +inf for zero."""
        if self._mult is None:
            self._mult = min((sum(m) for m in self.terms), default=math.inf)
        return self._mult

    def graded_part(self, degree: int) -> "Polynomial":
        return Polynomial._make(
            self.nvars, {m: c for m, c in self.terms.items() if sum(m) == degree}
        )

    def truncate(self, order: int) -> "Polynomial":
        """The terms of degree < order: ``self`` when that cuts nothing,
        which it records as its cut, so a truncation at or above the cut
        returns ``self`` without a scan."""
        cut = self._cut
        if cut is not None and order >= cut:
            return self
        kept = {m: c for m, c in self.terms.items() if sum(m) < order}
        if len(kept) < len(self.terms):
            return Polynomial._make(self.nvars, kept, order)
        self._cut = order
        return self

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i + 1)
        return used

    # ------------------------------------------------------------------
    # arithmetic

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        # a constant (zero included) equals its scalar, so it hashes as one
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and (c := terms.get((0,) * self.nvars)) is not None:
            return hash(c)
        return hash((self.nvars, frozenset(terms.items())))

    def __neg__(self):
        return Polynomial._make(self.nvars, {m: -c for m, c in self.terms.items()}, self._cut)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            s = c if v is None else v + c
            if s:
                out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
            elif v is not None:
                del out[m]
        cut = None if self._cut is None or other._cut is None else max(self._cut, other._cut)
        return Polynomial._make(self.nvars, out, cut)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(
                self.nvars, {m: c * other for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return dot(self.nvars, ((self, other),))

    __rmul__ = __mul__

    def mul_truncated(self, other: "Polynomial", order) -> "Polynomial":
        """Product without the terms of total degree >= order (``order=None``:
        the full product); :func:`dot` over the one pair."""
        return dot(self.nvars, ((self, other),), order)

    def _packed(self, codec):
        """(base, denominator, rows (degree, key, int numerator) of the terms
        of degree < base, sorted) for :func:`dot`, through the
        ``(base, encode, decode)`` tables of :func:`_codec`; the packing for
        the last base asked for is kept."""
        pack = self._pack
        base = codec[0]
        if pack is None or pack[0] != base:
            _, enc, dec = codec
            den = 1
            for c in self.terms.values():
                if type(c) is not int:
                    den = math.lcm(den, c.denominator)
            rows = []
            for m, c in self.terms.items():
                dk = enc.get(m)
                if dk is None:
                    d = sum(m)
                    if d >= base:  # exponents this large do not fit a key
                        continue
                    k = _monomial_key(m, base)
                    dk = enc[m] = (d, k)
                    dec[k] = m
                d, k = dk
                rows.append((d, k, c if den == 1 else c.numerator * (den // c.denominator)))
            rows.sort()
            pack = self._pack = (base, den, rows)
        return pack

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        return self.pow_truncated(exponent, None)

    def pow_truncated(self, exponent: int, order) -> "Polynomial":
        if len(self.terms) == 1:  # a single term raises termwise
            ((mono, c),) = self.terms.items()
            mono = tuple(e * exponent for e in mono)
            kept = order is None or sum(mono) < order
            return Polynomial(self.nvars, {mono: c**exponent} if kept else {})
        result = Polynomial.constant(self.nvars, 1)
        base = self if order is None else self.truncate(order)
        e = exponent
        while e:
            if e & 1:
                result = result.mul_truncated(base, order)
            e >>= 1
            if e:
                base = base.mul_truncated(base, order)
        return result

    # ------------------------------------------------------------------
    # evaluation and printing

    def __call__(self, *values):
        """Evaluate at rational arguments (exact)."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of arguments")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, mono):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return _norm_coeff(total)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)


def _monomial_key(mono, base):
    """The int key sum(e_i * base^(nvars-1-i)) of x^mono: the one packing
    loop.  Keys of exponents below ``base`` sort as the tuples do, and while
    every exponent of a product stays below ``base`` its key is the sum of
    its factors' keys, with no carry."""
    k = 0
    for e in mono:
        k = k * base + e
    return k


_KEY_BASE = 64
_CODEC_LIMIT = 1 << 15  # monomials one codec holds before its tables start afresh
_codecs = {}


def _codec(base, nvars):
    """``(base, encode, decode)``: the monomial codec of one key base, with
    tables exponent tuple -> (degree, key) and key -> exponent tuple.  They
    fill lazily and start afresh once they hold more than ``_CODEC_LIMIT``
    entries.  A memo only: every entry is a function of its key, so all
    callers, in any thread, may share it."""
    codec = _codecs.get((base, nvars))
    if codec is None or len(codec[2]) > _CODEC_LIMIT:  # the tables grow together
        codec = _codecs[base, nvars] = (base, {}, {})
    return codec


def dot(nvars: int, pairs, order=None) -> Polynomial:
    """Sum of a*b over the (a, b) pairs, truncated below m^order
    (``order=None``: exact): the one product loop of the package.

    The cut is ``order`` (or one more than the largest degree of a
    product).  x^e packs to the key sum(e_i * B^(nvars-1-i)) with B = 64
    for every cut up to 64 (above it the smallest power of two >= cut), so
    a product's key is ``ka + kb`` with no carry, keys sort as the exponent
    tuples do, and an operand's packing serves every truncation order.
    Each operand is packed once (int numerators over one denominator, rows
    by degree so the cut ends each inner loop); all products go into one
    int accumulator over the lcm of the pair denominators, and keys and
    exponent tuples are translated through one memoized codec per base.
    A pair with a zero operand is skipped before packing, and the output
    records the cut.  An operand in other than ``nvars`` variables raises
    ``ValueError`` before anything is packed into the codec of ``nvars``."""
    cut = order
    if order is None:
        pairs = list(pairs)
        cut = 1 + max([a.total_degree() + b.total_degree() for a, b in pairs if a.terms and b.terms],
                      default=0)
    codec = _codec(_KEY_BASE if cut <= _KEY_BASE else 1 << (cut - 1).bit_length(), nvars)
    base, enc, dec = codec
    packs, den = [], 1
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("nvars mismatch")
        if not a.terms or not b.terms:
            continue
        pa, pb = a._pack, b._pack
        _, da, rowa = pa if pa is not None and pa[0] == base else a._packed(codec)
        _, db, rowb = pb if pb is not None and pb[0] == base else b._packed(codec)
        if not rowa or not rowb or rowa[0][0] + rowb[0][0] >= cut:
            continue
        # the shorter operand below the cut runs the outer loop
        na = len(rowa) if rowa[-1][0] < cut else bisect_left(rowa, (cut,))
        nb = len(rowb) if rowb[-1][0] < cut else bisect_left(rowb, (cut,))
        if na > nb:
            rowa, rowb = rowb, rowa
        if da * db != 1:
            den = math.lcm(den, da * db)
        packs.append((da * db, rowa, rowb))
    acc, terms = {}, {}
    get = acc.get
    for pair_den, rowa, rowb in packs:
        scale = den // pair_den
        for d, ka, ca in rowa:
            end = bisect_left(rowb, (cut - d,))  # the first row of degree >= cut - d
            if not end:
                break
            if scale != 1:
                ca *= scale
            for _, kb, cb in rowb[:end] if end < len(rowb) else rowb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    for k, v in acc.items():
        if v:
            mono = dec.get(k)
            if mono is None:
                key, digits = k, [0] * nvars
                for i in range(nvars - 1, 0, -1):
                    key, digits[i] = divmod(key, base)
                digits[0] = key
                mono = dec[k] = tuple(digits)
                enc[mono] = (sum(mono), k)
            if den != 1:
                q, r = divmod(v, den)
                v = Fraction(v, den) if r else q
            terms[mono] = v
    return Polynomial._make(nvars, terms, cut)


class TruncatedSeries:
    """A power series known modulo ``m^order``.

    Wraps a polynomial whose stored terms all have total degree < order.
    Mixed arithmetic truncates to the smaller order of the operands.
    """

    __slots__ = ("poly", "order")

    def __init__(self, poly: Polynomial, order: int):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.poly = poly.truncate(order)
        self.order = order

    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncatedSeries":
        return cls(Polynomial.zero(nvars), order)

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    @property
    def constant_term(self):
        return self.poly.constant_term

    def multiplicity(self):
        """Exact multiplicity if visible, else a ``>= order`` marker."""
        if self.poly.is_zero():
            return MultiplicityBound(self.order)
        return self.poly.multiplicity()

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.poly, min(order, self.order))

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, Polynomial):
            return TruncatedSeries(other, self.order)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(Polynomial.constant(self.nvars, other), self.order)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return self.poly.truncate(n) == other.poly.truncate(n) and self.order == other.order

    def __neg__(self):
        return TruncatedSeries(-self.poly, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(self.poly + other.poly, n)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(self.poly - other.poly, n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.poly * other, self.order)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(self.poly.mul_truncated(other.poly, n), n)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TruncatedSeries({poly_to_string(self.poly)!r}, order={self.order})"

    def __str__(self):
        return f"{poly_to_string(self.poly)} + O(m^{self.order})"


# ----------------------------------------------------------------------
# calculus


def partial_derivative(f: Polynomial, index: int) -> Polynomial:
    """Formal partial derivative with respect to ``x_index`` (1-indexed)."""
    if isinstance(f, TruncatedSeries):
        return TruncatedSeries(partial_derivative(f.poly, index), max(f.order - 1, 1))
    if not 1 <= index <= f.nvars:
        raise ValueError(f"variable index {index} out of range 1..{f.nvars}")
    i = index - 1
    out = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e:
            new = list(mono)
            new[i] = e - 1
            out[tuple(new)] = coeff * e
    d = Polynomial(f.nvars, out)
    d._cut = None if f._cut is None else f._cut - 1
    return d


def divided_power(f: Polynomial, alpha) -> Polynomial:
    """Divided-power derivative: x^beta maps to prod(C(beta_i, alpha_i)) x^(beta-alpha).

    Binomial coefficients vanish when beta_i < alpha_i, so the operator is
    integral in every characteristic (here: keeps int coefficients int).
    """
    alpha = tuple(alpha)
    if len(alpha) != f.nvars:
        raise ValueError("alpha has wrong length")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be non-negative")
    # x^beta -> x^(beta - alpha) is injective and a nonzero coefficient times
    # a nonzero binomial is nonzero: each term is written once, clean
    out = {}
    for mono, coeff in f.terms.items():
        factor = 1
        for b, a in zip(mono, alpha):
            if b < a:
                break
            if a:
                factor *= math.comb(b, a)
        else:
            c = coeff * factor
            out[tuple(b - a for b, a in zip(mono, alpha))] = (
                _norm_coeff(c) if type(c) is Fraction else c
            )
    return Polynomial._make(f.nvars, out)


def monomials_below(weights, bound):
    """Exponent vectors a with ``sum(w_i * a_i) < bound`` for positive integer
    weights w, by total degree and within a degree in ``_grevlex_key`` order
    (the exponent of the last variable falling first)."""
    if not weights or min(weights) < 1:
        raise ValueError("monomials_below needs at least one weight, all positive")
    # reversed vectors with their weighted cost, built from the last variable
    # with falling exponents, so a stable sort by degree completes the order
    level = [((), 0)]
    for w in reversed(weights):
        level = [
            (a + (e,), c + e * w) for a, c in level for e in range((bound - c - 1) // w, -1, -1)
        ]
    out = [a[::-1] for a, _ in level]
    out.sort(key=sum)
    return out


def _image_list(images, nvars=None, what="image"):
    """The polynomials of a map's images or shifts (``what``), a series read as
    its polynomial: one Polynomial or series per variable, each in ``nvars``
    variables (None: those of the first) and with zero constant term."""
    out = [im.poly if isinstance(im, TruncatedSeries) else im for im in images]
    if not all(isinstance(im, Polynomial) for im in out):
        raise TypeError(f"{what}s must be Polynomial or TruncatedSeries")
    if nvars is None:
        if not out:
            raise ValueError(f"a map needs at least one {what}")
        nvars = out[0].nvars
    if len(out) != nvars:
        raise ValueError(f"a map in {nvars} variables needs {nvars} {what}s, got {len(out)}")
    for k, im in enumerate(out, start=1):
        if im.nvars != nvars:
            raise ValueError(f"{what} of x{k} has nvars {im.nvars}, expected {nvars}")
        if im.constant_term:
            raise ValueError(f"{what} of x{k} has nonzero constant term")
    return out


def _unit_exponents(nvars):  # of x_1, ..., x_nvars: the rows of the identity matrix
    return [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]


def _linear_part(polys):
    """Row i: the coefficients of x_1, ..., x_n in polys[i], by n lookups, not a walk."""
    units = _unit_exponents(polys[0].nvars)
    return [[p.terms.get(u, 0) for u in units] for p in polys]


class _Powers:
    """Memoized truncated products ``g^alpha`` of a tuple of series.

    ``get(alpha, order)`` is ``g^alpha`` mod m^order (the cache's own order
    by default), built from ``g^(alpha - e_i)`` mod m^(order - mult g_i)
    times g_i, with i the first nonzero index of alpha; ``g^(e_i)`` is g_i
    mod m^order, with no product.  That is exact,
    because g_i has multiplicity at least mult g_i, so each product is built
    only to the precision at which it is read.  The memo keeps each alpha at
    the highest precision built so far; a request at that precision or below
    is a hit and may return the longer value, which :func:`dot` cuts at its
    own cut.  Truncation commutes with regrouping, trunc(trunc(ab)c) =
    trunc(abc), so every product is the same whatever order its factors are
    taken in.
    """

    def __init__(self, gs, order):
        self.gs = gs
        self.order = order
        # a zero g_i makes every product with it zero, so any weight serves
        self.mults = [g.multiplicity() if g.terms else order for g in gs]
        self.cache = {(0,) * len(gs): (order, Polynomial.constant(gs[0].nvars, 1))}

    def get(self, alpha, order=None):
        order = self.order if order is None else min(order, self.order)
        hit = self.cache.get(alpha)
        if hit is not None and hit[0] >= order:
            return hit[1]
        i = next(k for k, a in enumerate(alpha) if a)
        if sum(alpha) == 1:  # g^(e_i) is g_i itself, no product with 1
            val = self.gs[i].truncate(order)
        else:
            prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            val = self.get(prev, order - self.mults[i]).mul_truncated(self.gs[i], order)
        self.cache[alpha] = (order, val)
        return val


def _known(x, order, what, whose):
    """The polynomial of ``x`` cut below m^order, the ``whose`` order an entry
    certifies or solves at; a series known only below it is refused, anything
    but a Polynomial or series passes through.  :func:`_series_args` caps instead."""
    if isinstance(x, TruncatedSeries):
        if x.order < order:
            raise ValueError(f"{what} is known mod m^{x.order}, below the {whose}'s order {order}")
        x = x.poly
    return x.truncate(order) if isinstance(x, Polynomial) else x


def _series_args(f, images, order, what):
    """f as a polynomial, its images by :func:`_image_list`, the order capped by f's."""
    if isinstance(f, TruncatedSeries):
        order = min(order, f.order)
        f = f.poly
    return f, _image_list(images, f.nvars, what), order


def substitute(f, images, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Compose ``f`` with a tuple of series images, truncated below ``order``.

    Every image must have zero constant term (the substitution maps the
    maximal ideal into itself), which makes the composition well defined at
    any finite truncation order.  Images tangent to the identity, x_i + h_i
    (linear part exactly x_i), go through the Taylor expansion
    :func:`_taylor_shift` along the shifts h: for a germ of low degree and
    shifts of high multiplicity few ``h^alpha`` are read, each at low
    precision.  Any other linear part takes the power path,
    :func:`_substitute_powers`: the sum of ``c * image^mono`` over the terms
    of f, with the powers from one :class:`_Powers` cache, where a term whose
    weighted multiplicity reaches ``order`` is skipped.  Both give the same
    series.  The power path is the faster one there: along shifts of
    multiplicity 1 the Taylor expansion reads a D^alpha f for nearly every
    alpha below the degree of f, and verifying ``morsify``'s maps by Taylor
    alone took 1.5 to 4.5 times as long.
    """
    f, imgs, order = _series_args(f, images, order, "image")
    units = _unit_exponents(f.nvars)
    if _linear_part(imgs) == [list(u) for u in units]:  # tangent to the identity: x_i + h_i
        shifts = [im - Polynomial._make(f.nvars, {u: 1}) for im, u in zip(imgs, units)]
        return _taylor_shift(f, _Powers(shifts, order))
    return _substitute_powers(f, imgs, order)


def _substitute_powers(f: Polynomial, imgs, order: int) -> TruncatedSeries:
    """The power path of :func:`substitute`: one :func:`dot` of the
    coefficients of f against the image powers ``image^mono``."""
    n = f.nvars
    powers = _Powers(imgs, order)
    pairs = [(Polynomial._make(n, {(0,) * n: c}), powers.get(mono)) for mono, c in f.terms.items()
             if sum(map(int.__mul__, mono, powers.mults)) < order]
    return TruncatedSeries(dot(n, pairs, order), order)


def substitute_shifted(f, shifts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Evaluate ``f(x + g)`` for a tuple of shifts ``g`` with multiplicity >= 1.

    Uses the divided-power Taylor expansion ``sum_alpha D^alpha f(x) g^alpha``
    over the exponents ``alpha`` of :func:`monomials_below` with
    ``sum(mult(g_i) * alpha_i) < order`` (a zero shift has weight ``order``),
    with ``g^alpha`` from one :class:`_Powers` cache.  This is much cheaper
    than generic substitution when the shifts have high multiplicity.
    """
    f, gs, order = _series_args(f, shifts, order, "shift")
    return _taylor_shift(f, _Powers(gs, order))


def _taylor_shift(f: Polynomial, powers: _Powers) -> TruncatedSeries:
    """``f(x + g)`` mod m^order for the shifts g and the order of ``powers``,
    which several expansions along the same shifts may share.

    Only contributing exponents are visited: an alpha with some alpha_i above
    every exponent of x_i in f has D^alpha f = 0 and is skipped unexpanded,
    and one with mult(D^alpha f) + sum(alpha_i * mult(g_i)) >= order is
    skipped before g^alpha is built; :func:`dot` would drop both pairs.  The
    product D^alpha f * g^alpha is read below m^order only, so g^alpha is
    asked for mod m^(order - mult(D^alpha f))."""
    order, mults, n = powers.order, powers.mults, f.nvars
    tops = [max([m[i] for m in f.terms], default=-1) for i in range(n)]
    pairs = []
    for alpha in monomials_below(mults, order)[1:]:  # alpha != 0
        if any(map(int.__gt__, alpha, tops)):
            continue
        dpf = divided_power(f, alpha)
        if dpf.terms and (m := dpf.multiplicity()) + sum(map(int.__mul__, alpha, mults)) < order:
            pairs.append((dpf, powers.get(alpha, order - m)))
    return TruncatedSeries(f + dot(n, pairs, order), order)


def series_sqrt(s: TruncatedSeries) -> TruncatedSeries:
    """Square root of a unit series with constant term 1.

    Returns t with ``t*t == s`` modulo ``m^order`` and constant term 1, via
    the binomial series for (1+u)^(1/2).
    """
    if not isinstance(s, TruncatedSeries):
        raise TypeError("series_sqrt expects a TruncatedSeries")
    if s.constant_term != 1:
        raise ValueError("series_sqrt requires constant term 1")
    order = s.order
    u = s.poly - Polynomial.constant(s.nvars, 1)
    total = Polynomial.constant(s.nvars, 1)
    upow = Polynomial.constant(s.nvars, 1)
    coeff = Fraction(1)
    k = 0
    while True:
        k += 1
        upow = upow.mul_truncated(u, order)
        if upow.is_zero():
            break
        coeff = coeff * Fraction(3 - 2 * k, 2 * k)  # C(1/2,k) recursion
        total = total + upow * coeff
    return TruncatedSeries(total, order)


def _mat_mul(X, Y, order):
    """X * Y for square matrices of polynomials, truncated below m^order:
    one :func:`dot` per entry, over a row of X and a column of Y."""
    nvars = X[0][0].nvars
    cols = list(zip(*Y))
    return [[dot(nvars, zip(row, col), order) for col in cols] for row in X]


def _newton_inverse(E, order):
    """(I + E)^-1 mod m^order for a matrix of polynomials with mult(E) >= 1.

    Newton doubling: X correct mod m^k gives X(2I - (I+E)X) = X + X*R with
    R = I - (I+E)X correct mod m^(2k), so every pass runs at its own
    precision only.  :func:`series_inverse` is its 1 x 1 case.
    """
    n, nvars = len(E), E[0][0].nvars
    ident = [[Polynomial.constant(nvars, int(i == j)) for j in range(n)] for i in range(n)]
    X, prec = ident, 1
    while prec < order:
        prec = min(2 * prec, order)
        EX = _mat_mul([[e.truncate(prec) for e in row] for row in E], X, prec)
        R = [[ident[i][j] - X[i][j] - EX[i][j] for j in range(n)] for i in range(n)]
        XR = _mat_mul(X, R, prec)
        X = [[X[i][j] + XR[i][j] for j in range(n)] for i in range(n)]
    return X


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Reciprocal of a unit series (nonzero constant term): for s = c(1 + u),
    c^-1 times the 1 x 1 :func:`_newton_inverse` of u."""
    if not s.constant_term:
        raise ValueError("series_inverse requires a unit (nonzero constant term)")
    inv_c0 = Fraction(1) / Fraction(s.constant_term)
    ((y,),) = _newton_inverse([[s.poly * inv_c0 - 1]], s.order)
    return TruncatedSeries(y * inv_c0, s.order)


def multiplicity(f):
    """Order of vanishing at the origin.

    For a polynomial: the smallest total degree of a term, ``math.inf`` for
    the zero polynomial.  For a truncated series that vanishes identically,
    only ``>= order`` is known and a :class:`MultiplicityBound` is returned.
    """
    if isinstance(f, (Polynomial, TruncatedSeries)):
        return f.multiplicity()
    raise TypeError("multiplicity expects Polynomial or TruncatedSeries")


# ----------------------------------------------------------------------
# text format


class ParseError(ValueError):
    """Syntax error in the polynomial text format, with byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_LETTER_VARS = {"x": 1, "y": 2, "z": 3, "w": 4}

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<var>x\d+|[xyzw])|(?P<op>[-+*/^()])")


def _var_number(name: str) -> int:
    """Index of a variable token: k for ``x<k>``, 1-4 for ``x y z w``."""
    return int(name[1:]) if len(name) > 1 else _LETTER_VARS[name]


def infer_nvars(text: str) -> int:
    """Largest variable index mentioned in a polynomial or ideal string."""
    names = (t.group("var") for t in _TOKEN_RE.finditer(text))
    return max([1] + [_var_number(name) for name in names if name])


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", int(m.group("num")), pos))
        elif m.group("var") is not None:
            tokens.append(("var", m.group("var"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent for:  expr := sign? term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := base ('^' uint)?;
    base := rational | var | '(' expr ')'.  Implicit multiplication rejected.
    """

    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> Polynomial:
        result = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return result

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        total = self.term() * sign
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                total = total - t if val == "-" else total + t
            else:
                return total

    def term(self) -> Polynomial:
        total = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.next()
                total = total * self.factor()
            elif kind in ("num", "var") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", off)
            else:
                return total

    def factor(self) -> Polynomial:
        base = self.base()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            ekind, eval_, eoff = self.next()
            if ekind != "num":
                raise ParseError("expected a non-negative integer exponent", eoff)
            return base ** eval_
        return base

    def base(self) -> Polynomial:
        kind, val, off = self.next()
        if kind == "num":
            nkind, nval, noff = self.peek()
            if nkind == "op" and nval == "/":
                self.next()
                dkind, dval, doff = self.next()
                if dkind != "num":
                    raise ParseError("expected an integer denominator", doff)
                if dval == 0:
                    raise ParseError("zero denominator literal", doff)
                return Polynomial.constant(self.nvars, Fraction(val, dval))
            return Polynomial.constant(self.nvars, val)
        if kind == "var":
            return Polynomial.variable(self.nvars, self._var_index(val, off))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a number, variable, or '('", off)

    def _var_index(self, name: str, offset: int) -> int:
        idx = _var_number(name)
        if idx < 1:
            raise ParseError("variable indices are 1-based", offset)
        if idx > self.nvars:
            raise ParseError(
                f"variable x{idx} out of range for nvars={self.nvars}", offset
            )
        return idx


def parse_poly(text: str, nvars: int) -> Polynomial:
    """Parse the package's polynomial text format.

    Grammar: sums of '*'-separated factors, each a rational literal ``a`` or
    ``a/b``, a variable (``x1, x2, ...`` or the letters ``x y z w`` for the
    first four), or a parenthesized expression, optionally raised by ``^`` to
    a non-negative integer.  Whitespace is ignored; implicit multiplication
    is a syntax error.
    """
    return _Parser(text, nvars).parse()


def poly_to_string(f: Polynomial) -> str:
    """Canonical text form: graded reverse lexicographic, highest degree first."""
    if isinstance(f, TruncatedSeries):
        f = f.poly
    if not f.terms:
        return "0"
    parts = []
    for mono in sorted(f.terms, key=_grevlex_key, reverse=True):
        coeff = f.terms[mono]
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if mag != 1 or not any(mono):
            factors.append(str(mag))
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
