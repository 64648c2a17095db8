"""Jacobian ideals, truncated ideal membership, Milnor numbers.

Ideals are plain generator lists; the constructors prune an all-monomial
list to its minimal monomials by one rule, ``_minimal_monomials``, which the
Newton-polyhedron thresholds share.  Everything else reduces to exact linear
algebra over the rationals on finite-dimensional truncations of the local
ring at the origin, done by the one elimination kernel
:class:`~lctlab.linalg.SparseEliminator` on rows made by one function,
``_truncated_multiples``: each generator times each monomial of low enough
degree, truncated below ``m^N``.  Rows carry the polynomials' own int or
Fraction coefficients; the kernel clears denominators once per row and
eliminates on integers, so a germ with integer coefficients builds Fractions
only when a witness is read back:

* ``membership_truncated`` adds these rows tagged (generator, monomial),
  asks the kernel to solve for the target, and returns the series
  coefficients as a witness that re-expands exactly modulo ``m^N``, or a
  definite failure at that order;
* ``milnor_number`` computes the colength of the Jacobian ideal, the
  monomial count minus the kernel's rank on the untagged rows of the
  partials, by increasing the truncation order until the quotient dimension
  stabilizes, which is permanent in the complete local ring (if no degree-N
  monomial is independent modulo the ideal, multiplying by the maximal ideal
  shows the same for every higher degree, and the Krull intersection theorem
  finishes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import SparseEliminator, rank_dense
from .polyring import (
    Polynomial,
    TruncatedSeries,
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
    order: the minimal generators of the monomial ideal they generate."""
    distinct = list(dict.fromkeys(exponents))
    return [m for m in distinct if not any(o != m and _mono_divides(o, m) for o in distinct)]


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
    in degree order, so pivot ties fall to the lowest degree, and ``rows``
    lazily yields ``(i, a, {column: coefficient})``, x^a * g_i truncated below
    m^order, for each nonzero g_i and min_degree <= |a| < order - mult(g_i)."""
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

    Solves the exact linear system over the monomial basis of degree < order.
    ``min_degree`` restricts every coefficient series to multiplicity at
    least that value.  Returns a :class:`MembershipWitness` (whose expansion
    reproduces g exactly mod m^order) or :class:`NotMember`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if g.nvars != a.nvars:
        raise ValueError("nvars mismatch")
    target = g.truncate(order)
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
    """Marker: the singularity is non-isolated (certified when a partial
    derivative is identically zero) or looks so (heuristic cutoff)."""

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


def _colength(f: Polynomial, order: int) -> int:
    """dim of (monomials of degree < order) modulo truncations of m-multiples
    of the partial derivatives."""
    partials = [partial_derivative(f, i) for i in range(1, f.nvars + 1)]
    column, rows = _truncated_multiples(f.nvars, partials, order)
    elim = SparseEliminator()
    for _, _, row in rows:
        elim.add_row(row)
    return len(column) - elim.rank


def milnor_number(f: Polynomial, order_cap: int = 64):
    """Colength of the Jacobian ideal at the origin.

    Computes the quotient dimension at increasing truncation orders and
    returns the value at the first repeat (stabilization is permanent, see
    module docstring).  Returns :class:`NonIsolated` at once when some
    partial derivative is identically zero, or when the dimension keeps
    growing past the heuristic cutoff, and :class:`Inconclusive` at the cap.
    """
    if f.is_zero():
        raise ValueError("milnor_number needs a nonzero input")
    if f.constant_term:
        raise ValueError("milnor_number needs f(0) = 0")
    if f.multiplicity() < 2:
        raise ValueError("milnor_number needs a singular point (multiplicity >= 2)")
    if any(partial_derivative(f, i).is_zero() for i in range(1, f.nvars + 1)):
        # f does not depend on x_i, so with mult(f) >= 2 it is singular along
        # the whole x_i-axis
        return NonIsolated()
    deg = int(f.total_degree())
    growth_streak = 0
    prev = None
    for order in range(2, order_cap + 1):
        cur = _colength(f, order)
        if prev is not None:
            if cur == prev:
                return prev
            if order > 2 * deg:
                growth_streak = growth_streak + 1 if cur > prev else 0
                if growth_streak >= 5:
                    return NonIsolated()
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
