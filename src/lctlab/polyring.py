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
reciprocals of unit seriesial, and a strict text-format parser.

Printing is canonical: terms are ordered by graded reverse lexicographic
order (highest degree first), so equal polynomials always print identically
and ``parse_poly(poly_to_string(f)) == f``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Union

Coeff = Union[int, Fraction]
Mono = "tuple[int, ...]"

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
    so values are safe to share across threads.
    """

    __slots__ = ("nvars", "terms", "_mult")

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
        self.nvars = nvars
        self.terms = clean
        self._mult = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable ``x_index`` (1-indexed)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = [0] * nvars
        mono[index - 1] = 1
        return cls(nvars, {tuple(mono): 1})

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): coeff})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono) -> Coeff:
        return self.terms.get(tuple(mono), 0)

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self):
        """Largest total degree of a term, -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(sum(m) for m in self.terms)

    def multiplicity(self):
        """Smallest total degree of a nonzero term, +inf for zero."""
        if self._mult is None:
            self._mult = min((sum(m) for m in self.terms), default=math.inf)
        return self._mult

    def graded_part(self, degree: int) -> "Polynomial":
        return Polynomial(
            self.nvars, {m: c for m, c in self.terms.items() if sum(m) == degree}
        )

    def truncate(self, order: int) -> "Polynomial":
        return Polynomial(
            self.nvars, {m: c for m, c in self.terms.items() if sum(m) < order}
        )

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
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

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
                out[m] = s
            elif v is not None:
                del out[m]
        return Polynomial(self.nvars, out)

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
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other: "Polynomial", order) -> "Polynomial":
        """Product, discarding all terms of total degree >= order.

        ``order=None`` means the full product.  This is the hot path of the
        package; terms of the second factor are visited in increasing degree
        so the truncation cut-off exits each inner loop early.
        """
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

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        return self.pow_truncated(exponent, None)

    def pow_truncated(self, exponent: int, order) -> "Polynomial":
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
    return Polynomial(f.nvars, out)


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
    out = {}
    for mono, coeff in f.terms.items():
        factor = 1
        for b, a in zip(mono, alpha):
            if b < a:
                factor = 0
                break
            if a:
                factor *= math.comb(b, a)
        if factor:
            new = tuple(b - a for b, a in zip(mono, alpha))
            out[new] = out.get(new, 0) + coeff * factor
    return Polynomial(f.nvars, out)


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


def _image_list(images, nvars):
    out = []
    for im in images:
        if isinstance(im, TruncatedSeries):
            out.append(im.poly)
        elif isinstance(im, Polynomial):
            out.append(im)
        else:
            raise TypeError("images must be Polynomial or TruncatedSeries")
    if len(out) != nvars:
        raise ValueError(f"expected {nvars} images, got {len(out)}")
    return out


def substitute(f, images, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Compose ``f`` with a tuple of series images, truncated below ``order``.

    Every image must have zero constant term (the substitution maps the
    maximal ideal into itself), which makes the composition well defined at
    any finite truncation order.
    """
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


def substitute_shifted(f, shifts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Evaluate ``f(x + g)`` for a tuple of shifts ``g`` with multiplicity >= 1.

    Uses the divided-power Taylor expansion ``sum_alpha D^alpha f(x) g^alpha``,
    which is much cheaper than generic substitution when the shifts have high
    multiplicity: only exponents ``alpha`` with ``sum(mult(g_i) * alpha_i) <
    order`` contribute.
    """
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


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Reciprocal of a unit series (nonzero constant term), by Newton iteration.

    Each pass doubles the precision: y correct mod m^k gives y(2 - s y)
    correct mod m^(2k), so every pass runs at its own precision only.
    """
    c0 = s.constant_term
    if not c0:
        raise ValueError("series_inverse requires a unit (nonzero constant term)")
    order = s.order
    y = TruncatedSeries(Polynomial.constant(s.nvars, Fraction(1, 1) / Fraction(c0)), 1)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        y = TruncatedSeries(y.poly, prec)
        y = y * (2 - s.truncate(prec) * y)
    return y


def multiplicity(f):
    """Order of vanishing at the origin.

    For a polynomial: the smallest total degree of a term, ``math.inf`` for
    the zero polynomial.  For a truncated series that vanishes identically,
    only ``>= order`` is known and a :class:`MultiplicityBound` is returned.
    """
    if isinstance(f, TruncatedSeries):
        return f.multiplicity()
    if isinstance(f, Polynomial):
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

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<var>[xyzw]\d*)|(?P<op>[-+*/^()])")


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
        if len(name) > 1 and name[0] == "x":
            idx = int(name[1:])
            if idx < 1:
                raise ParseError("variable indices are 1-based", offset)
        else:
            idx = _LETTER_VARS[name]
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


def _coeff_str(c) -> str:
    return str(c)


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
            factors.append(_coeff_str(mag))
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
