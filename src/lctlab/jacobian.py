"""Jacobian ideals, truncated ideal membership, Milnor numbers.

Ideals are plain generator lists; the constructors prune an all-monomial
list to its minimal monomials by one rule, ``_minimal_monomials``, which the
Newton-polyhedron thresholds share.  Everything else reduces to exact linear
algebra over the rationals on finite-dimensional truncations of the local
ring at the origin, done by the one elimination kernel
:class:`~lctlab.linalg.SparseEliminator` on rows x^a * g_i, a generator times
a monomial, with columns keyed by degree first so that every pivot sits at
its row's lowest-degree monomial.  Rows carry the polynomials' own int or
Fraction coefficients; the kernel clears denominators once per row and
eliminates on integers, so a germ with integer coefficients builds Fractions
only when a witness is read back:

* ``membership_truncated`` adds the rows of ``_truncated_multiples``, each
  truncated below ``m^N`` and tagged (generator, monomial), asks the kernel
  to solve for the target, and returns the series coefficients as a witness
  that re-expands exactly modulo ``m^N``, or a definite failure at that
  order;
* ``milnor_number`` reads the colength of J_f + m^N, order after order, from
  one elimination (``_colengths``).  At order N it adds, untruncated, only
  the rows x^a * d_i f whose lowest degree |a| + mult(d_i f) is N - 1, and
  the colength is the number of monomials of degree < N minus the number
  of pivots of degree < N.  A pivot row's lead is its lowest monomial and
  never changes, pivot rows with distinct leads stay independent modulo
  m^N, and a row added later has only columns of degree >= N, which
  reducing it cannot lower; so the pivot rows led below N, truncated there,
  are a basis of J_f modulo m^N, and their count is final once order N is
  read.  The first N whose colength equals that of N - 1 gives the Milnor
  number: then m^(N-1) lies in J_f + m^N, so in J_f by Nakayama's lemma,
  and every higher order reads the same value.  A germ whose colength
  passes the Bezout bound, the product of the degrees of the partials, is
  reported non-isolated with that certificate (see ``milnor_number``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import comb, prod
from typing import Sequence

from .linalg import SparseEliminator, rank_dense
from .polyring import (
    Polynomial,
    TruncatedSeries,
    _known,
    dot,
    monomials_below,
    partial_derivative,
    poly_to_string,
)


@dataclass(frozen=True)
class IdealGens:
    """A finite generator list; the order of generators is part of the value."""

    nvars: int
    gens: tuple

    def __init__(self, nvars: int, gens: Sequence[Polynomial]):
        gens = tuple(gens)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial values")
            if g.nvars != nvars:
                raise ValueError("generator nvars mismatch")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.gens)

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens if not g.is_zero())

    def exponents(self):
        """Exponent vectors of a monomial ideal's generators."""
        out = []
        for g in self.gens:
            if g.is_zero():
                continue
            (mono,) = g.terms
            out.append(mono)
        return out

    def __str__(self):
        return "(" + ", ".join(poly_to_string(g) for g in self.gens) + ")"


def _mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal_monomials(exponents):
    """The exponent vectors no other one divides, each once, in first-seen
    order: the minimal generators of the monomial ideal they generate.

    A vector is divided only by distinct vectors of lower degree, and then by
    a minimal one among them, so walking by degree each one is tested only
    against the minimal vectors kept so far."""
    distinct = list(dict.fromkeys(exponents))
    kept = []
    for m in sorted(distinct, key=sum):
        if not any(_mono_divides(o, m) for o in kept):
            kept.append(m)
    minimal = set(kept)
    return [m for m in distinct if m in minimal]


def _ideal(nvars: int, gens) -> IdealGens:
    """The ideal of ``gens``; an all-monomial list is pruned to its minimal
    monomials, each with its first coefficient (a unit), sorted by (degree,
    grevlex) for determinism."""
    a = IdealGens(nvars, gens)
    if not a.is_monomial():
        return a
    first_seen = {mono: g for g in reversed(a.gens) for mono in g.terms}  # first one wins
    keep = sorted(_minimal_monomials(first_seen), key=lambda m: (sum(m), tuple(reversed(m))))
    return IdealGens(nvars, [first_seen[m] for m in keep])


def jacobian_ideal(f: Polynomial) -> IdealGens:
    """The ideal generated by all first partial derivatives, in variable order."""
    if f.is_zero():
        raise ValueError("the Jacobian ideal of the zero polynomial is undefined")
    return IdealGens(f.nvars, [partial_derivative(f, i) for i in range(1, f.nvars + 1)])


def ideal_D(a: IdealGens) -> IdealGens:
    """Generators of ``a`` together with all their partial derivatives.

    For a principal ideal (f) this is (f) + J_f.  Derivatives of arbitrary
    combinations h*g add nothing new modulo this ideal, by the Leibniz rule.
    """
    if a.is_zero():
        raise ValueError("ideal_D of the zero ideal is undefined")
    gens = list(a.gens)
    for g in a.gens:
        for i in range(1, a.nvars + 1):
            d = partial_derivative(g, i)
            if not d.is_zero():
                gens.append(d)
    return _ideal(a.nvars, gens)


def ideal_sum(a: IdealGens, b: IdealGens) -> IdealGens:
    if a.nvars != b.nvars:
        raise ValueError("nvars mismatch")
    return _ideal(a.nvars, a.gens + b.gens)


def ideal_product(a: IdealGens, b: IdealGens) -> IdealGens:
    """Pairwise products of generators.

    For a*a only the unordered pairs are kept, in lexicographic (i, j) order
    with i <= j, until all-monomial products are pruned and re-sorted.
    """
    if a.nvars != b.nvars:
        raise ValueError("nvars mismatch")
    gens = []
    if a is b or a.gens == b.gens:
        for i in range(len(a.gens)):
            for j in range(i, len(a.gens)):
                gens.append(a.gens[i] * a.gens[j])
    else:
        for g in a.gens:
            for h in b.gens:
                gens.append(g * h)
    return _ideal(a.nvars, gens)


def ideal_power(a: IdealGens, k: int) -> IdealGens:
    if k < 1:
        raise ValueError("power must be >= 1")
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


# ----------------------------------------------------------------------
# truncated membership


def _truncated_multiples(nvars: int, gens, order: int, min_degree: int = 0):
    """``(column, rows)``: ``column`` numbers the monomials of degree < order
    in degree order, so a row's pivot, the smallest column left once it is
    reduced, is a monomial of the lowest degree left; ``rows`` lazily yields
    ``(i, a, {column: coefficient})``, x^a * g_i truncated below m^order,
    for each nonzero g_i and min_degree <= |a| < order - mult(g_i)."""
    column = {m: k for k, m in enumerate(monomials_below((1,) * nvars, order))}

    def rows():
        for i, gen in enumerate(gens):
            if gen.is_zero():
                continue
            for mono in monomials_below((1,) * nvars, order - gen.multiplicity()):
                if sum(mono) < min_degree:
                    continue
                row = {}
                for m, c in gen.terms.items():
                    s = tuple(map(int.__add__, m, mono))
                    if sum(s) < order:
                        row[column[s]] = c
                yield i, mono, row

    return column, rows()


@dataclass
class MembershipWitness:
    """Certificate that ``sum(coefficients[i] * gens[i]) == target mod m^order``."""

    target: Polynomial
    gens: IdealGens
    coefficients: list
    order: int

    def expand(self) -> Polynomial:
        pairs = [(h.poly, g) for h, g in zip(self.coefficients, self.gens.gens)]
        return dot(self.target.nvars, pairs, self.order)

    def verify(self) -> bool:
        return self.expand() == self.target.truncate(self.order)


@dataclass
class NotMember:
    """Definite failure: the target is not in the ideal modulo m^order."""

    order: int
    reason: str = ""


def membership_truncated(
    g: Polynomial,
    a: IdealGens,
    order: int,
    min_degree: int = 0,
):
    """Write ``g`` as a combination of the generators modulo ``m^order``.

    ``g`` is a Polynomial or a series known at least mod m^order.  Solves
    the exact linear system over the monomial basis of degree < order.
    ``min_degree`` restricts every coefficient series to multiplicity at
    least that value.  Returns a :class:`MembershipWitness` (whose expansion
    reproduces g exactly mod m^order) or :class:`NotMember`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if g.nvars != a.nvars:
        raise ValueError("nvars mismatch")
    target = _known(g, order, "g", "witness")
    column, rows = _truncated_multiples(a.nvars, a.gens, order, min_degree)
    elim = SparseEliminator()
    for gi, mono, row in rows:
        elim.add_row(row, tag=(gi, mono))
    sol = elim.solve({column[m]: c for m, c in target.terms.items()})
    if sol is None:
        return NotMember(order, "linear system inconsistent at this order")
    per_gen = [{} for _ in a.gens]
    for (gi, mono), value in sol.items():
        per_gen[gi][mono] = value
    coeffs = [TruncatedSeries(Polynomial(a.nvars, terms), order) for terms in per_gen]
    witness = MembershipWitness(target, a, coeffs, order)
    if not witness.verify():
        raise AssertionError("membership witness failed to re-expand")
    return witness


# ----------------------------------------------------------------------
# quadratic rank and Milnor numbers


def quadratic_form_matrix(f: Polynomial):
    """Symmetric matrix of the degree-2 part; off-diagonal entries are halved."""
    n = f.nvars
    s = [[Fraction(0)] * n for _ in range(n)]
    for mono, coeff in f.graded_part(2).terms.items():
        idx = [i for i, e in enumerate(mono) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            s[i][i] = Fraction(coeff)
        else:
            s[i][j] = s[j][i] = Fraction(coeff, 2)
    return s


def quadratic_rank(f: Polynomial) -> int:
    """Rank over the rationals of the quadratic part of f.

    Requires f to vanish to order >= 2 at the origin (or be zero).
    """
    if not f.is_zero() and f.multiplicity() < 2:
        raise ValueError("quadratic_rank needs multiplicity >= 2")
    return rank_dense(quadratic_form_matrix(f))


class NonIsolated:
    """Marker: the singularity at the origin is not isolated.

    ``certificate`` says why: ``("zero partial", i)`` when the i-th partial
    derivative is identically zero, or ``(order, colength, bound)`` when
    the colength of J_f + m^order exceeds ``bound``, the product of the
    degrees of the partials (see :func:`milnor_number`).  Every
    ``NonIsolated`` is equal to every other, whatever its certificate."""

    def __init__(self, certificate=None):
        self.certificate = certificate

    def __repr__(self):
        return "NonIsolated"

    def __eq__(self, other):
        return isinstance(other, NonIsolated)

    def __hash__(self):
        return hash("NonIsolated")


@dataclass(frozen=True)
class Inconclusive:
    """The colength had not stabilized when the order cap was reached."""

    order_cap: int


def _colengths(f: Polynomial):
    """colength(J_f + m^N) for N = 1, 2, ..., one value per ``next``, from
    one elimination (see the module docstring)."""
    n = f.nvars
    partials = [partial_derivative(f, i) for i in range(1, n + 1)]
    partials = [(p, p.multiplicity()) for p in partials if not p.is_zero()]
    lowest = min((m for _, m in partials), default=0)
    column = {}  # monomial -> key with its degree in the high bits, made on first sight
    elim = SparseEliminator()
    pending = {}  # degree -> pivots of that degree, until the order passes it
    below = 0  # pivots of degree < order
    for order in count(1):
        shifts = monomials_below((1,) * n, order - lowest)
        for p, mult in partials:
            d = order - 1 - mult  # the rows x^a * p of lowest degree order - 1
            if d < 0:
                continue
            for a in shifts[comb(d - 1 + n, n) : comb(d + n, n)]:
                row = {}
                for m, c in p.terms.items():
                    s = tuple(map(int.__add__, m, a))
                    key = column.get(s)
                    if key is None:
                        key = column[s] = sum(s) << 32 | len(column)
                    row[key] = c
                if elim.add_row(row):
                    degree = next(reversed(elim.pivots)) >> 32
                    pending[degree] = pending.get(degree, 0) + 1
        below += pending.pop(order - 1, 0)
        yield comb(order - 1 + n, n) - below


def _colength(f: Polynomial, order: int) -> int:
    """dim of (monomials of degree < order) modulo truncations of m-multiples
    of the partial derivatives."""
    return next(islice(_colengths(f), order - 1, None))


def milnor_number(f: Polynomial, order_cap: int = 64):
    """Colength of the Jacobian ideal at the origin.

    Reads colength(J_f + m^N) for N = 2, 3, ... and returns the value at the
    first repeat, which is permanent (see the module docstring).  Returns
    :class:`NonIsolated` with a certificate in two cases, and
    :class:`Inconclusive` when neither happens by ``order_cap``:

    * a partial derivative d_i f is identically zero: f does not depend on
      x_i, so with mult(f) >= 2 it is singular along the whole x_i-axis;
    * colength(J_f + m^N) > B, the product of the degrees of the partials.
      If the origin is isolated, the partials form a regular sequence in
      its local ring, so mu = dim O/J_f is the intersection multiplicity
      there of the hypersurfaces d_i f = 0 (Fulton, *Intersection Theory*,
      Prop. 7.1).  The origin is then an irreducible component of their
      intersection in P^n, and by the refined Bezout theorem (ibid., Thm
      12.2(a) and section 12.3) the distinguished varieties contribute
      nonnegative degrees that sum to the product of the degrees, so
      mu <= B; and colength(J_f + m^N) <= mu.  A colength above B thus
      shows that the origin is not isolated, and for a non-isolated germ
      the colength grows without bound, so it crosses B at some order.
    """
    if f.is_zero():
        raise ValueError("milnor_number needs a nonzero input")
    if f.constant_term:
        raise ValueError("milnor_number needs f(0) = 0")
    if f.multiplicity() < 2:
        raise ValueError("milnor_number needs a singular point (multiplicity >= 2)")
    partials = [partial_derivative(f, i) for i in range(1, f.nvars + 1)]
    for i, p in enumerate(partials, 1):
        if p.is_zero():
            return NonIsolated(("zero partial", i))
    bound = prod(p.total_degree() for p in partials)
    colengths = _colengths(f)
    next(colengths)  # order 1, where every colength is 1
    prev = None
    for order, cur in zip(range(2, order_cap + 1), colengths):
        if cur == prev:
            return prev
        if cur > bound:
            return NonIsolated((order, cur, bound))
        prev = cur
    return Inconclusive(order_cap)


@dataclass
class MilnorInequalityReport:
    """Exact evaluation of the bound alpha^n * mu >= (n/2)^n."""

    mu: int
    alpha: Fraction
    value: Fraction
    bound: Fraction
    holds: bool
    equality: bool


def check_milnor_inequality(f: Polynomial, alpha) -> MilnorInequalityReport:
    """Check the minimal-exponent/Milnor-number inequality for an isolated
    singularity; alpha is supplied by the caller (closed forms live in the
    threshold module)."""
    mu = milnor_number(f)
    if not isinstance(mu, int):
        raise ValueError(f"milnor_number did not resolve to an integer: {mu!r}")
    n = f.nvars
    alpha = Fraction(alpha)
    value = alpha**n * mu
    bound = Fraction(n, 2) ** n
    return MilnorInequalityReport(
        mu=mu,
        alpha=alpha,
        value=value,
        bound=bound,
        holds=value >= bound,
        equality=value == bound,
    )
