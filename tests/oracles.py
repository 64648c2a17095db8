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
  mod p, on the generators and reads off the t-adic order.  Counting the jets
  of a box one by one needs no Jacobian, no affine system per level and no
  closed form, which is how :func:`~lctlab.arcs.count_contact_jets` counts
  them; the two share only the truncated evaluation of a polynomial on a jet.

* :func:`invert` builds the inverse of a coordinate map by a fixed-point
  loop of plain :func:`~lctlab.polyring.substitute` calls, with the linear
  part solved by ``solve_dense``.  :meth:`~lctlab.equiv.CoordinateMap.then`
  composes by Taylor shifts over a shared power cache instead, so a round
  trip ``cmap.then(invert(cmap))`` that gives the identity checks one route
  against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from lctlab.arcs import _poly_eval_jet
from lctlab.equiv import CoordinateMap
from lctlab.jacobian import IdealGens, _minimal_monomials, _mono_divides
from lctlab.lct import NewtonWitness, RayValuation
from lctlab.linalg import SparseEliminator, solve_dense
from lctlab.polyring import Polynomial, dot, substitute


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
