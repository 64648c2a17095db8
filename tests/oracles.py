"""Brute-force oracles that the tests check the library against.

None of these backs a result of the tool; each recomputes something the
library computes, by a method other than the one it checks:

* :func:`newton_lct_witness_ray` searches every primitive integer ray with
  bounded entries and evaluates its log-discrepancy to order ratio directly
  through :class:`~lctlab.lct.RayValuation`.  It solves no linear program and
  visits no vertex, so it is independent of :func:`~lctlab.lct.newton_lct`'s
  vertex solves and of the certificate that checks them.

* :func:`newton_walk_by_solves` walks the same candidate bases as
  :func:`~lctlab.lct.newton_lct_certificate`, in the same order, but solves
  each basis's primal and dual systems as two eliminations with two
  integral solves (:func:`solve_square`), where the library reads both from
  one adjugate.  :func:`newton_check_fractions` checks a
  :class:`~lctlab.lct.NewtonWitness` in ``Fraction`` arithmetic, where
  :meth:`~lctlab.lct.LctCertificate.check` compares integers.

* :func:`minimal_monomials_quadratic` keeps a distinct exponent vector when
  no other distinct one divides it, testing every pair.
  :func:`~lctlab.jacobian._minimal_monomials` walks the vectors by degree and
  tests each one only against the minimal ones kept so far.

* :func:`lct_diag_bruteforce` minimizes over the integer rays (a, b) of a
  bounded box directly.  It does not use the breakpoint argument by which
  :func:`~lctlab.lct.lct_diag_fJ2` reduces the minimum to two endpoints.

* :class:`JetPoint` evaluates one whole jet, coordinate polynomials in t
  mod p, on the generators, through :func:`_poly_eval_jet`, and reads off
  the t-adic order.  Counting the jets of a box one by one needs no
  Jacobian, no affine system per level and no closed form, which is how
  :func:`~lctlab.arcs.count_contact_jets` counts them; the two share no
  evaluator, since the library reads each level's coefficient off one
  Taylor shift of the generators per singular zero.

* :func:`count_contact_jets_by_levels` is the level recursion that
  :func:`~lctlab.arcs.count_contact_jets` was, kept verbatim: it row reduces
  the Jacobian at every zero mod p, smooth ones included, and lifts one node
  at a time, evaluating each generator on the whole jet to read one
  coefficient.  The library decides the rank of all zeros at once on the
  residue grid, counts the smooth ones together, and lifts only the
  singular ones, level by level over numpy batches of nodes.

* :func:`invert` builds the inverse of a coordinate map by a fixed-point
  loop of plain :func:`~lctlab.polyring.substitute` calls, with the linear
  part solved by ``solve_dense``.  :meth:`~lctlab.equiv.CoordinateMap.then`
  composes by Taylor shifts over a shared power cache instead, so a round
  trip ``cmap.then(invert(cmap))`` that gives the identity checks one route
  against the other.

* :func:`truncate_by_scan` keeps the terms of degree below the order by
  reading every term.  :meth:`~lctlab.polyring.Polynomial.truncate` reads
  the cut a polynomial records instead, and returns it whole at or above
  that cut.

* :class:`FirstHitEliminator` reduces a row as
  :class:`~lctlab.linalg.SparseEliminator` did before it cleared pivot
  columns in increasing order: it takes the first pivot column in the row's
  dict order and scans the row again after every step.  The stored pivot
  rows, leads and solutions do not depend on that order, so the two must
  agree exactly while taking different steps.

* :func:`truncated_multiples_by_tuples` and :func:`colengths_by_tuples` are
  the row builders that :func:`~lctlab.jacobian._truncated_multiples` and
  :func:`~lctlab.jacobian._colengths` were, kept verbatim: each entry adds
  two exponent tuples and looks the sum up by tuple hash, where the library
  adds two packed int keys.  :func:`_colength_oracle` is the per-monomial
  loop before one elimination served every Milnor order: it truncates each
  order's rows afresh.

* :func:`series_inverse_by_doubling` is the scalar Newton loop y(2 - s y)
  over truncated series that :func:`~lctlab.polyring.series_inverse` was,
  kept verbatim.  The library now reads the reciprocal as the 1 x 1 case of
  the matrix inverse ``_newton_inverse``, scaled by the constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from itertools import product as iter_product
from math import comb, gcd

import numpy as np

from lctlab.arcs import _rref_mod_p
from lctlab.budget import check_budget
from lctlab.equiv import CoordinateMap
from lctlab.expsum import _eval_terms_mod, _int_terms, _require_prime, _residue_grids, _vanishing
from lctlab.jacobian import IdealGens, _minimal_monomials, _mono_divides
from lctlab.lct import NewtonWitness, RayValuation
from lctlab.linalg import SparseEliminator, solve_dense
from lctlab.polyring import Polynomial, dot, monomials_below, partial_derivative, substitute
from lctlab.polyring import TruncatedSeries


def newton_lct_witness_ray(a: IdealGens, weight_bound: int):
    """Search primitive rays with entries <= weight_bound realizing the
    smallest log-discrepancy to order ratio.  Independent of the LP route;
    used to cross-check newton_lct."""
    from itertools import product as iproduct

    best = None
    best_ray = None
    n = a.nvars
    for w in iproduct(range(weight_bound + 1), repeat=n):
        if all(v == 0 for v in w):
            continue
        g = 0
        for v in w:
            g = gcd(g, v)
        if g != 1:
            continue
        ray = RayValuation(w)
        o = ray.ord_ideal(a)
        if o == 0:
            continue
        val = Fraction(ray.log_discrepancy(), o)
        if best is None or val < best:
            best = val
            best_ray = ray
    return best, best_ray


def solve_square(columns, target):
    """({k: p_k}, q) with sum(p_k * columns[k]) == q * target and q > 0 the
    least such denominator, for columns and target given as sparse integer
    dicts, which the kernel takes as they are; None when the columns are
    linearly dependent."""
    elim = SparseEliminator()
    for k, col in columns.items():
        if not elim.add_row(col, tag=k):
            return None
    return elim.solve_integral(target)


def newton_walk_by_solves(a: IdealGens):
    """(value, NewtonWitness) of the first primal and dual feasible basis of
    Howald's linear program, each basis solved by two eliminations: the
    primal system A_S (p / q) = b_S, and on success the dual system
    A_S^T (lam / den) = (1, ..., 1)."""
    exps = a.exponents()
    n = a.nvars
    gens = sorted(_minimal_monomials(exps))
    m = len(gens)
    for basis in combinations(range(m + n), n):
        rows = [k for k in basis if k < m]
        fixed = {k - m for k in basis[len(rows):]}
        free = [i for i in range(n) if i not in fixed]
        got = solve_square({i: {j: gens[j][i] for j in rows if gens[j][i]} for i in free},
                           dict.fromkeys(rows, 1))
        if got is None:
            continue
        w, q = got
        p = tuple(w.get(i, 0) for i in range(n))
        if min(p) < 0 or any(sum(x * y for x, y in zip(p, v)) < q for v in gens):
            continue
        lam, den = solve_square({j: {i: gens[j][i] for i in free if gens[j][i]} for j in rows},
                                dict.fromkeys(free, 1))
        if any(c < 0 for c in lam.values()):
            continue
        if any(sum(c * gens[j][i] for j, c in lam.items()) > den for i in range(n)):
            continue
        g = gcd(*p)
        return Fraction(sum(p), q), NewtonWitness(
            ray=RayValuation(tuple(x // g for x in p)),
            lam=tuple((gens[j], Fraction(c, den)) for j, c in sorted(lam.items())),
        )
    raise AssertionError("no basis of the Newton polyhedron is primal and dual feasible")


def newton_check_fractions(cert, a: IdealGens) -> bool:
    """Whether ``cert``, a value with a :class:`~lctlab.lct.NewtonWitness`,
    certifies the threshold of ``a``: the ray's ratio and sum(lambda) both
    equal the value, and sum(lambda_j v_j) <= (1, ..., 1) with every
    lambda_j >= 0 on a generator v_j, all compared as Fractions."""
    w = cert.witness
    order = w.ray.ord_ideal(a)
    if order == 0 or Fraction(w.ray.log_discrepancy(), order) != cert.value:
        return False
    gens = set(a.exponents())
    if any(c < 0 or v not in gens for v, c in w.lam):
        return False
    if any(sum(c * v[i] for v, c in w.lam) > 1 for i in range(a.nvars)):
        return False
    return sum(c for _, c in w.lam) == cert.value


def minimal_monomials_quadratic(exponents):
    """The exponent vectors no other one divides, each once, in first-seen
    order: the minimal generators of the monomial ideal they generate."""
    distinct = list(dict.fromkeys(exponents))
    return [m for m in distinct if not any(o != m and _mono_divides(o, m) for o in distinct)]


def lct_diag_bruteforce(n: int, d: int, bound: int = 50) -> Fraction:
    """Independent check: minimize over integer rays (a, b) <= bound directly."""
    best = None
    for b in range(1, bound + 1):
        for a in range(0, bound + 1):
            denom = min(d * b + a, (2 * d - 2) * b)
            val = Fraction(n * b + a, denom)
            if best is None or val < best:
                best = val
    return best


def _poly_eval_jet(poly: Polynomial, coords, p: int, length: int):
    """Evaluate poly on a jet; coords are coefficient tuples of length
    `length`; returns the value's coefficients mod p, truncated to t^length."""
    out = [0] * length
    for mono, coeff in poly.terms.items():
        term = [1] + [0] * (length - 1)
        for var, e in enumerate(mono):
            for _ in range(e):
                nxt = [0] * length
                cv = coords[var]
                for i, a in enumerate(term):
                    if not a:
                        continue
                    for j in range(length - i):
                        b = cv[j]
                        if b:
                            nxt[i + j] = (nxt[i + j] + a * b) % p
                term = nxt
        c = int(coeff) % p
        if c:
            for i in range(length):
                if term[i]:
                    out[i] = (out[i] + c * term[i]) % p
    return out


def count_contact_jets_by_levels(
    gens: IdealGens, p: int, m: int, e: int, budget=None
) -> int:
    """Number of order-m jets along which every generator vanishes to order
    >= e in t, over the field with p elements.  Exact.

    Requires m >= 0, 0 <= e <= m + 1 and integer generator coefficients.
    The count recurses over t-degree levels (see module docstring): level 0
    keeps the zeros of the generators mod p, a zero where their Jacobian has
    full row rank is counted in closed form, and elsewhere each constrained
    level descends only into the solutions of a linear system over F_p, so p
    must be prime.  The budget guards the volume p^((m+1)n) of the jet
    space.
    """
    n = gens.nvars
    if m < 0 or e < 0 or e > m + 1:
        raise ValueError(f"need m >= 0 and 0 <= e <= m + 1, got m = {m}, e = {e}")
    terms = [_int_terms(g) for g in gens.gens]  # a Fraction is refused ahead of the budget
    check_budget(p ** ((m + 1) * n), budget, what="jet enumeration", unit="jets")
    _require_prime(p)
    if e == 0:
        return p ** ((m + 1) * n)

    polys = list(gens.gens)
    s = len(polys)
    free = p ** (n * (m + 1 - e))  # levels e..m are unconstrained
    grids = _residue_grids(n, p)
    shape = (p,) * n
    zero = np.broadcast_to(_vanishing(terms, grids, p), shape)
    jac = [
        [
            np.broadcast_to(
                _eval_terms_mod(_int_terms(partial_derivative(g, j)), grids, p), shape
            )
            for j in range(1, n + 1)
        ]
        for g in polys
    ]
    coords = [[0] * (m + 1) for _ in range(n)]

    def lift(ell):
        """Completions of the jet whose levels < ell are set in coords; the
        linear algebra at the current x0 is read from trans, pivots, kernel."""
        if ell == e:
            return free
        # t^ell coefficients with c_ell = 0, mapped through the row operations
        b = [-_poly_eval_jet(g, coords, p, ell + 1)[ell] for g in polys]
        rhs = [sum(t * v for t, v in zip(row, b)) % p for row in trans]
        if any(rhs[len(pivots):]):
            return 0
        if ell == e - 1:
            return p ** len(kernel) * free
        base = [0] * n
        for col, v in zip(pivots, rhs):
            base[col] = v
        count = 0
        for combo in iter_product(range(p), repeat=len(kernel)):
            for var in range(n):
                coords[var][ell] = (
                    base[var] + sum(c * k[var] for c, k in zip(combo, kernel))
                ) % p
            count += lift(ell + 1)
        for var in range(n):
            coords[var][ell] = 0
        return count

    total = 0
    for x0 in np.argwhere(zero):
        x0 = tuple(int(v) for v in x0)
        # [J | I] reduced on the J block: the I block records the row operations
        rows, pivots = _rref_mod_p(
            [[int(jac[i][j][x0]) for j in range(n)] + [int(i == k) for k in range(s)]
             for i in range(s)],
            n, p,
        )
        if len(pivots) == s:
            total += p ** ((n - s) * (e - 1)) * free
            continue
        kernel = []
        for col in range(n):
            if col not in pivots:
                vec = [0] * n
                vec[col] = 1
                for row, pc in zip(rows, pivots):
                    vec[pc] = -row[col] % p
                kernel.append(vec)
        for var in range(n):
            coords[var][0] = x0[var]
        trans = [row[n:] for row in rows]
        total += lift(1)
    return total


@dataclass(frozen=True)
class JetPoint:
    """An order-m jet: one coefficient tuple (length m+1, reduced mod p) per
    coordinate."""

    p: int
    m: int
    coords: tuple  # n tuples of m+1 coefficients each

    def __post_init__(self):
        coords = tuple(
            tuple(int(c) % self.p for c in coeffs) for coeffs in self.coords
        )
        for coeffs in coords:
            if len(coeffs) != self.m + 1:
                raise ValueError("each coordinate needs m + 1 coefficients")
        object.__setattr__(self, "coords", coords)

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def contact_order(self, poly: Polynomial):
        """t-adic order of poly evaluated on the jet; m + 1 means the value
        is zero to the full truncation (order >= m + 1)."""
        vals = _poly_eval_jet(
            poly, [list(c) for c in self.coords], self.p, self.m + 1
        )
        for j, v in enumerate(vals):
            if v:
                return j
        return self.m + 1

    def contact_order_ideal(self, gens: "IdealGens"):
        return min(self.contact_order(g) for g in gens.gens)


def invert(cmap: CoordinateMap) -> CoordinateMap:
    """Compositional inverse mod m^order, by fixed-point refinement."""
    n, order = cmap.nvars, cmap.order
    lin = cmap.linear_part()
    # inverse of the linear part, solving L^T columns exactly
    inv = [solve_dense(lin, [int(k == i) for k in range(n)]) for i in range(n)]
    # linv[i][j]: coefficient of x_j in the i-th inverse image
    linv = [[inv[j][i] for j in range(n)] for i in range(n)]

    def linear_apply(vecs):
        return [dot(n, [(Polynomial.constant(n, c), v) for c, v in zip(row, vecs)])
                for row in linv]

    xs = [Polynomial.variable(n, i) for i in range(1, n + 1)]
    higher = [im.poly - im.poly.graded_part(1) for im in cmap.images]
    sigma = linear_apply(xs)
    for _ in range(order + 1):
        correction = [
            substitute(h, sigma, order).poly if not h.is_zero() else h
            for h in higher
        ]
        new_sigma = linear_apply([x - c for x, c in zip(xs, correction)])
        if new_sigma == sigma:
            break
        sigma = new_sigma
    result = CoordinateMap(sigma, order)
    check = cmap.then(result)
    for i, im in enumerate(check.images, start=1):
        if im.poly != Polynomial.variable(n, i):
            raise AssertionError("map inversion failed to verify")
    return result


def truncate_by_scan(p: Polynomial, order) -> Polynomial:
    """``p`` without its terms of degree >= order, reading every term, in
    the order of ``p``'s terms."""
    return Polynomial(p.nvars, {m: c for m, c in p.terms.items() if sum(m) < order})


def series_inverse_by_doubling(s: TruncatedSeries) -> TruncatedSeries:
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


class FirstHitEliminator(SparseEliminator):
    """The eliminator with the reduction it had before pivot columns were
    cleared in increasing order: each step takes the first pivot column in
    the row's dict order and scans the row again, so a column can be
    cleared more than once."""

    def _reduce(self, row: dict, steps=None):
        """(residue, scale): ``scale * row`` minus integer multiples of the
        pivot rows, with no entry left in a pivot column; ``row`` is an int
        row and is never written to: the first reduction works on a copy,
        and a row that meets no pivot is returned as it came.  For each
        pivot used, (column, multiple) is appended to ``steps``, if given,
        with the multiples taken against the final scale."""
        pivots = self.pivots
        muls = [] if steps is not None else None
        scale = 1
        own = False  # whether ``row`` is a copy this call may write to
        while row:
            hit = None
            for col in row:
                if col in pivots:
                    hit = col
                    break
            if hit is None:
                break
            piv = pivots[hit]
            g = math.gcd(row[hit], piv[hit])
            a, m = row[hit] // g, piv[hit] // g
            if m != 1:
                row = {c: m * v for c, v in row.items()}
                scale *= m
                own = True
            elif not own:
                row = dict(row)
                own = True
            if muls is not None:
                steps.append((hit, a))
                muls.append(m)
            for col, coeff in piv.items():
                v = row.get(col, 0) - a * coeff
                if v:
                    row[col] = v
                else:
                    del row[col]
        if muls is not None and scale != 1:
            # a multiple taken before later rescalings is carried by them
            later = 1
            for i in range(len(steps) - 1, -1, -1):
                if later != 1:
                    steps[i] = (steps[i][0], steps[i][1] * later)
                later *= muls[i]
        return row, scale


def truncated_multiples_by_tuples(nvars: int, gens, order: int, min_degree: int = 0):
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


def colengths_by_tuples(f: Polynomial):
    """colength(J_f + m^N) for N = 1, 2, ..., one value per ``next``, from
    one elimination (see the :mod:`lctlab.jacobian` docstring)."""
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


def _colength_oracle(f, order):
    """The per-monomial colength loop that ``_colength`` replaced, with
    tuple column keys."""
    n = f.nvars
    partials = [partial_derivative(f, i) for i in range(1, n + 1)]
    elim = SparseEliminator()
    nmons = 0
    for mono in monomials_below((1,) * n, order):
        nmons += 1
        for p in partials:
            if p.is_zero():
                continue
            if sum(mono) + p.multiplicity() >= order:
                continue
            row = {}
            for m, c in p.terms.items():
                s = tuple(map(int.__add__, m, mono))
                if sum(s) < order:
                    row[s] = c
            if row:
                elim.add_row(row)
    return nmons - elim.rank
