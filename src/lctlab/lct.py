"""Exact log canonical thresholds and Bernstein-Sato root tables.

Three independent computations live here:

* :func:`newton_lct`: the threshold of a monomial ideal from its Newton
  polyhedron, by Howald's linear program
  lct(a) = min { sum(w) : w >= 0, <w, v_j> >= 1 for every generator v_j },
  solved exactly by walking the candidate bases in a fixed order and stopping
  at the first that is primal and dual feasible, hence optimal (each basis an
  n x n integer system solved by :class:`~lctlab.linalg.SparseEliminator`
  to integer numerators over one denominator, a ``Fraction`` built only for
  the value and the dual multipliers), and returned with that primal-dual
  certificate, checked before the value leaves the function
  (:func:`newton_lct_certificate`);

* :func:`lct_diag_fJ2` and :func:`lct_det_fJ2`: closed-form thresholds of
  the ideal (f) + J_f^2 for the diagonal family x_1^d + ... + x_n^d and for
  the generic n x n determinant, each returned with the ray or partition
  witness achieving the minimum and cross-checkable by re-evaluation; the
  partition witness is the :class:`OrbitInvariants` of its matrix-jet orbit;

* :func:`yano_roots` / :func:`det_roots`: root multisets of the reduced
  Bernstein-Sato polynomials of the two families, from which the minimal
  exponents n/d and 2 are read off.

General thresholds (arbitrary non-monomial ideals) are deliberately not
computed: they require resolutions, which are out of scope.  The consistency
checks at the bottom compare the two family computations against each other
and against the minimal exponents, in exact rational arithmetic.  The
brute-force ray searches that cross-check :func:`newton_lct` and
:func:`lct_diag_fJ2` live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Optional

from .budget import check_budget
from .jacobian import IdealGens, _minimal_monomials, ideal_D, ideal_power, ideal_sum
from .linalg import SparseEliminator


# ----------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class RayValuation:
    """A monomial valuation given by a primitive non-negative weight vector."""

    weights: tuple

    def __post_init__(self):
        w = tuple(int(v) for v in self.weights)
        if not w or all(v == 0 for v in w):
            raise ValueError("weights must be nonzero")
        if any(v < 0 for v in w):
            raise ValueError("weights must be non-negative")
        g = 0
        for v in w:
            g = gcd(g, v)
        if g != 1:
            raise ValueError("weights must be primitive (gcd 1)")
        object.__setattr__(self, "weights", w)

    def log_discrepancy(self) -> int:
        return sum(self.weights)

    def ord_monomial(self, mono) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def ord_ideal(self, a: IdealGens) -> int:
        return min(self.ord_monomial(m) for m in a.exponents())


@dataclass(frozen=True)
class BlowupRayWitness:
    """Witness ray (a, b) in the blow-up coordinates used for the diagonal
    family: a is the order along the strict transform direction, b along the
    exceptional divisor."""

    a: int
    b: int


@dataclass(frozen=True)
class OrbitInvariants:
    """Invariants of the matrix-jet orbit labeled by a partition, and the
    witness of the determinantal family's orbit minimization.

    codim = sum(lam_i * (2i - 1)); the determinant vanishes to order
    sum(lam_i) along the orbit and the submaximal minors to order
    sum_{i >= 2}(lam_i).
    """

    lam: tuple
    codim: int
    ord_f: int
    ord_J: int

    @property
    def ord_fJ2(self) -> int:
        return min(self.ord_f, 2 * self.ord_J)


def orbit_invariants(lam) -> OrbitInvariants:
    lam = tuple(int(v) for v in lam)
    if any(v < 0 for v in lam):
        raise ValueError("partition entries must be non-negative")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("partition must be weakly decreasing")
    codim = sum(v * (2 * i + 1) for i, v in enumerate(lam))
    return OrbitInvariants(
        lam=lam,
        codim=codim,
        ord_f=sum(lam),
        ord_J=sum(lam[1:]),
    )


@dataclass(frozen=True)
class NewtonWitness:
    """Both sides of Howald's linear program at an optimal vertex.

    ``ray`` is the optimal weight vector made primitive; it bounds
    lct <= A(ray) / ord_ray(a).  ``lam`` pairs generators v_j with rationals
    lambda_j >= 0 such that sum(lambda_j * v_j) <= (1, ..., 1) componentwise;
    for every w >= 0 that gives sum(w) >= sum(lambda_j * <w, v_j>) >=
    sum(lambda_j) * ord_w(a), so lct >= sum(lambda_j).
    """

    ray: RayValuation
    lam: tuple  # ((exponent vector, Fraction), ...)


@dataclass(frozen=True)
class LctCertificate:
    value: Fraction
    witness: object

    def check(self, context) -> bool:
        """Re-evaluate the defining ratio at the witness; exact equality."""
        w = self.witness
        if isinstance(w, BlowupRayWitness):
            n, d = context
            denom = min(d * w.b + w.a, (2 * d - 2) * w.b)
            return Fraction(n * w.b + w.a, denom) == self.value
        if isinstance(w, OrbitInvariants):
            try:
                inv = orbit_invariants(w.lam)  # re-derived, not read from w
            except ValueError:  # lam is not a partition
                return False
            return inv.ord_fJ2 > 0 and Fraction(inv.codim, inv.ord_fJ2) == self.value
        if isinstance(w, NewtonWitness):
            a = context
            order = w.ray.ord_ideal(a)
            if order == 0 or Fraction(w.ray.log_discrepancy(), order) != self.value:
                return False
            gens = set(a.exponents())
            if any(c < 0 or v not in gens for v, c in w.lam):
                return False
            if any(sum(c * v[i] for v, c in w.lam) > 1 for i in range(a.nvars)):
                return False
            return sum(c for _, c in w.lam) == self.value
        return False


# ----------------------------------------------------------------------
# Newton polyhedron: a walk over the bases, stopped by a primal-dual certificate


def _monomial_exponents(a: IdealGens):
    if not a.is_monomial():
        raise ValueError("newton_lct needs a monomial ideal")
    if a.is_zero():
        raise ValueError("newton_lct needs a nonzero ideal")
    return a.exponents()


def _solve_square(columns, target):
    """({k: p_k}, q) with sum(p_k * columns[k]) == q * target and q > 0 the
    least such denominator, for columns and target given as sparse integer
    dicts, which the kernel takes as they are; None when the columns are
    linearly dependent."""
    elim = SparseEliminator()
    for k, col in columns.items():
        if not elim.add_row(col, tag=k):
            return None
    return elim.solve_integral(target)


def newton_lct_certificate(a: IdealGens, budget=None) -> LctCertificate:
    """Threshold of a proper nonzero monomial ideal, with a checked
    primal-dual certificate (:class:`NewtonWitness`).

    Howald's linear program lct = min { sum(w) : w >= 0, <w, v_j> >= 1 } has
    a pointed feasible region on which sum(w) is bounded below, so its
    minimum sits at a vertex.  Only minimal generators are kept (a divided
    generator gives a redundant constraint for w >= 0); with m of them, each
    n-subset S of the m generator rows and n coordinate rows e_i is a
    candidate basis, skipped when the kernel's rank shows A_S singular (the
    coordinate rows alone give p = 0, never primal feasible).  The bases are
    walked in ``combinations`` order and the first one that is primal and dual
    feasible is returned: A_S (p / q) = b_S with p >= 0 and <p, v_j> >= q for
    every generator, and A_S^T (lam / den) = (1, ..., 1) with lam >= 0 and
    sum(lam_j v_j) <= den on every coordinate.

    Such a basis is optimal.  p vanishes on the coordinate rows of S and
    each generator row of S is tight, so sum(p) / q = sum_i (p_i / q)
    sum_j (lam_j / den) v_j[i] = sum_j (lam_j / den) <p / q, v_j> =
    sum(lam) / den (complementary slackness), and by weak duality no
    feasible w has sum(w) below sum(lam) / den.  Conversely an optimal basis
    is primal feasible, so in this order the first primal and dual feasible
    basis is the first optimal basis that passes the dual test: a degenerate
    vertex can have optimal bases with negative duals, which are passed
    over.  The C(m + n, n) bases are checked against ``budget`` before the
    walk starts.
    """
    exps = _monomial_exponents(a)
    if any(sum(e) == 0 for e in exps):
        raise ValueError("the unit ideal has no finite threshold")
    n = a.nvars
    gens = sorted(_minimal_monomials(exps))
    m = len(gens)
    check_budget(
        comb(m + n, n), budget, what="Newton-polyhedron vertex enumeration", unit="candidate bases"
    )
    for basis in combinations(range(m + n), n):
        rows = [k for k in basis if k < m]
        fixed = {k - m for k in basis[len(rows):]}
        free = [i for i in range(n) if i not in fixed]
        # A_S (p / q) = b_S, with p_i = 0 on the coordinate rows of S
        got = _solve_square({i: {j: gens[j][i] for j in rows if gens[j][i]} for i in free},
                            dict.fromkeys(rows, 1))
        if got is None:
            continue
        w, q = got
        p = tuple(w.get(i, 0) for i in range(n))
        if min(p) < 0 or any(sum(x * y for x, y in zip(p, v)) < q for v in gens):
            continue
        # A_S^T (lam / den) = (1, ..., 1): multipliers on the generator rows
        # of S, and slacks 1 - sum(lambda_j v_j)_i on its coordinate rows
        lam, den = _solve_square({j: {i: gens[j][i] for i in free if gens[j][i]} for j in rows},
                                 dict.fromkeys(free, 1))
        if any(c < 0 for c in lam.values()):
            continue
        if any(sum(c * gens[j][i] for j, c in lam.items()) > den for i in range(n)):
            continue
        g = gcd(*p)
        witness = NewtonWitness(
            ray=RayValuation(tuple(x // g for x in p)),
            lam=tuple((gens[j], Fraction(c, den)) for j, c in sorted(lam.items())),
        )
        break
    else:
        raise AssertionError("no basis of the Newton polyhedron is primal and dual feasible")
    cert = LctCertificate(value=Fraction(sum(p), q), witness=witness)
    if not cert.check(a):
        raise AssertionError("Newton-polyhedron certificate failed its check")
    return cert


def newton_lct(a: IdealGens, budget=None):
    """Log canonical threshold of a monomial ideal via its Newton polyhedron.

    Returns 1/t* where t* is the smallest t with t*(1,..,1) inside the
    convex hull of the exponent vectors plus the non-negative orthant,
    computed by :func:`newton_lct_certificate`, whose certificate is checked
    on every call.  Unit ideals give the +inf sentinel.
    """
    if any(sum(e) == 0 for e in _monomial_exponents(a)):
        return math.inf  # unit ideal
    return newton_lct_certificate(a, budget).value


# ----------------------------------------------------------------------
# Fourier-Motzkin elimination over exact rationals.  No longer on any
# computation path: it stays as the independent test oracle for newton_lct
# (tests/test_lct.py), and the benchmark's traced run looks the name up.


def _fm_normalize(ineq):
    """Scale an inequality (coeffs, const) meaning sum(c*x) <= const so the
    first nonzero coefficient has absolute value 1 (dedup helper)."""
    coeffs, const = ineq
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return ineq
    s = abs(lead)
    return tuple(c / s for c in coeffs), const / s


def fourier_motzkin_minimize(num_vars: int, inequalities, objective_var: int):
    """Minimize x_objective subject to linear inequalities sum(c x) <= const.

    Eliminates every other variable in turn, then reads the sharpest lower
    bound on the objective.  Exact; raises if the system is infeasible or
    the objective unbounded below.  Only the tests call it, as the oracle
    for :func:`newton_lct`.
    """
    ineqs = [
        (tuple(Fraction(c) for c in coeffs), Fraction(const))
        for coeffs, const in inequalities
    ]
    for var in range(num_vars):
        if var == objective_var:
            continue
        pos, neg, rest = [], [], []
        for coeffs, const in ineqs:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new = rest
        for pc, pconst in pos:
            for nc, nconst in neg:
                # combine to cancel var: scale pos by -nc[var], neg by pc[var]
                a = -nc[var]
                b = pc[var]
                coeffs = tuple(a * u + b * v for u, v in zip(pc, nc))
                new.append((coeffs, a * pconst + b * nconst))
        seen = set()
        ineqs = []
        for ineq in new:
            key = _fm_normalize(ineq)
            if key not in seen:
                seen.add(key)
                ineqs.append(ineq)
    lower = None
    for coeffs, const in ineqs:
        c = coeffs[objective_var]
        if c == 0:
            if const < 0:
                raise ValueError("infeasible system")
            continue
        if c < 0:
            # -x <= const / |c|  =>  x >= -const/|c|
            bound = const / c
            if lower is None or bound > lower:
                lower = bound
    if lower is None:
        raise ValueError("objective is unbounded below")
    return lower


# ----------------------------------------------------------------------
# the two families


def lct_diag_fJ2(n: int, d: int) -> LctCertificate:
    """Threshold of (f) + J_f^2 for f = x_1^d + ... + x_n^d.

    The minimization over rays (a, b) is piecewise linear after scaling b to
    1: for a <= d-2 the order is d*b + a, beyond it the Jacobian-square term
    (2d-2)*b takes over, so the minimum is attained at a = 0 or a = d - 2.
    The result is min((n+d-2)/(2d-2), n/d), returned with the witness ray.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    candidates = []
    for a in (0, d - 2):
        denom = min(d + a, 2 * d - 2)
        candidates.append((Fraction(n + a, denom), BlowupRayWitness(a, 1)))
    value, witness = min(candidates, key=lambda t: (t[0], t[1].a))
    closed = min(Fraction(n + d - 2, 2 * d - 2), Fraction(n, d))
    if value != closed:
        raise AssertionError("piecewise minimization disagrees with closed form")
    cert = LctCertificate(value=value, witness=witness)
    if not cert.check((n, d)):
        raise AssertionError("diagonal threshold certificate failed its check")
    return cert


def _det_slice_classes(n: int, bound: int) -> dict:
    """{lambda_1: largest T} over the classes (lambda_1, T = lambda_2 + ... +
    lambda_n) of partitions with sum <= bound and lambda_2 >= 1; no tail
    entry exceeds lambda_1, so T <= (n-1) lambda_1."""
    return {l1: min(bound - l1, (n - 1) * l1) for l1 in range(1, bound)}


def _det_class_codim(l1: int, t: int) -> int:
    """Codimension of the greedy tuple (l1, l1, ..., l1, r, 0, ...) of the
    class (l1, t), whose tail holds q copies of l1 and t = q*l1 + r."""
    q, r = divmod(t, l1)
    return l1 * (q + 1) ** 2 + r * (2 * q + 3)


def _det_slice_minimum(n: int, bound: int, budget=None):
    """(least codim / min(ord_f, 2 ord_J), least partition reaching it) over
    the partitions with two parts and sum(lambda) <= bound, one class at a
    time (see lct_det_fJ2).  Visited by lambda_1 and then T, the greedy tuples
    come in lexicographic order, so the first class reaching the least ratio
    gives the least partition.  The class count is checked against ``budget``
    before the scan."""
    caps = _det_slice_classes(n, bound)
    check_budget(
        sum(caps.values()), budget, what="determinantal slice minimization", unit="slice classes"
    )
    best_num, best_den = 1, 0  # the ratio codim / denom of best_class; 1/0 is +inf
    best_class = None
    for l1, cap in caps.items():
        for t in range(1, cap + 1):
            codim, denom = _det_class_codim(l1, t), min(l1 + t, 2 * t)
            # compare codim / denom with the best ratio by cross-multiplication
            if codim * best_den < best_num * denom:
                best_num, best_den, best_class = codim, denom, (l1, t)
    l1, t = best_class
    q, r = divmod(t, l1)
    return Fraction(best_num, best_den), ((l1,) * (q + 1) + (r,) + (0,) * n)[:n]


def lct_det_fJ2(n: int, budget=None) -> LctCertificate:
    """Threshold of (f) + J_f^2 for the generic n x n determinant: exactly 2.

    Minimizes codim / min(ord_f, 2 ord_J) over matrix-orbit partitions with
    at least two parts on the scale slice sum(lambda) <= 4n, one class
    (lambda_1, T = lambda_2 + ... + lambda_n) at a time.  In a class the
    denominator min(lambda_1 + T, 2T) is fixed and the codim weights 2i+1
    (0-indexed) strictly increase, so the greedy tail (lambda_1, ...,
    lambda_1, r, 0, ...), which majorizes every other tail of sum T with
    entries <= lambda_1, is the unique class minimizer; its codim is
    lambda_1 (q+1)^2 + r(2q+3) for T = q*lambda_1 + r.

    The lower bound 2 holds for every partition with two parts, on or off
    the slice, with lam_i 1-indexed.  When ord = 2*sum_{i>=2} lam_i,
    codim - 4*sum_{i>=2} lam_i = lam_1 - lam_2 + sum_{i>=3}(2i-5) lam_i >= 0,
    since lam_1 >= lam_2 and 2i-5 >= 1 for i >= 3.  When ord = sum(lam), so
    lam_1 <= sum_{i>=2} lam_i, codim - 2*sum(lam) = -lam_1 +
    sum_{i>=2}(2i-3) lam_i >= -lam_1 + sum_{i>=2} lam_i >= 0, since
    2i-3 >= 1 for i >= 2.  The witness is the :class:`OrbitInvariants` of
    the least minimizing partition.  ``budget`` bounds the number of classes,
    about 8n^2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    best, best_lam = _det_slice_minimum(n, 4 * n, budget)
    if best != 2:
        raise AssertionError(f"slice minimum is {best}, expected 2")
    cert = LctCertificate(value=Fraction(2), witness=orbit_invariants(best_lam))
    if not cert.check(None):
        raise AssertionError("determinantal threshold certificate failed its check")
    return cert


# ----------------------------------------------------------------------
# Bernstein-Sato root tables


@dataclass
class BSRootTable:
    """Multiset of the negated roots of the reduced Bernstein-Sato polynomial
    (the factor (s+1) removed), with the minimal exponent."""

    roots: dict  # Fraction -> multiplicity
    min_exponent: Fraction

    @property
    def size(self) -> int:
        return sum(self.roots.values())

    def sorted_roots(self):
        return sorted(self.roots.items())


def yano_roots(n: int, d: int) -> BSRootTable:
    """Roots for the diagonal family: all sums b_1/d + ... + b_n/d with
    1 <= b_i <= d-1, counted with multiplicity ((d-1)^n in total); the
    minimal exponent is n/d.

    Computed by convolving the count vector of one variable n times, so the
    table costs O(n^2 d^2) regardless of (d-1)^n.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for s, c in counts.items():
            for b in range(1, d):
                nxt[s + b] = nxt.get(s + b, 0) + c
        counts = nxt
    roots = {Fraction(s, d): c for s, c in sorted(counts.items())}
    table = BSRootTable(roots=roots, min_exponent=Fraction(n, d))
    if table.size != (d - 1) ** n:
        raise AssertionError("root count mismatch")
    if min(roots) != table.min_exponent:
        raise AssertionError("minimal root mismatch")
    return table


def det_roots(n: int) -> BSRootTable:
    """Roots for the generic determinant: 2, 3, ..., n after removing the
    (s+1) factor; the minimal exponent is 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    roots = {Fraction(i): 1 for i in range(2, n + 1)}
    return BSRootTable(roots=roots, min_exponent=Fraction(2))


# ----------------------------------------------------------------------
# consistency checks


@dataclass
class FamilyReport:
    """Exact invariants of one family member and the regime booleans."""

    family: str
    params: dict
    alpha_tilde: Fraction
    lct_f: Fraction
    lct_fJ2: Fraction
    inequality_holds: bool  # alpha_tilde >= lct(f, J_f^2)
    equality: bool
    strict: bool
    lct_fJ2_above_one: bool
    regime_consistent: bool

    def as_row(self) -> dict:
        row = {"family": self.family}
        row.update(self.params)
        row.update(
            {
                "alpha": str(self.alpha_tilde),
                "lct_f": str(self.lct_f),
                "lct_fJ2": str(self.lct_fJ2),
                "ineq": self.inequality_holds,
                "equality": self.equality,
                "strict": self.strict,
                "above_one": self.lct_fJ2_above_one,
                "consistent": self.regime_consistent,
            }
        )
        return row


def check_theorems(family: str, n: int, d: Optional[int] = None, budget=None) -> FamilyReport:
    """Compare the minimal exponent with lct(f, J_f^2) on one family member.

    For the diagonal family the expected regimes are: equality exactly when
    d = 2 or d >= n, strict inequality exactly when 3 <= d < n, and
    lct(f, J_f^2) > 1 exactly when d < n.  For the determinantal family both
    invariants equal 2, and ``budget`` bounds the slice classes of its
    threshold (see ``lct_det_fJ2``).  All comparisons are exact rationals.
    """
    if family == "diagonal":
        if d is None:
            raise ValueError("diagonal family needs d")
        alpha = Fraction(n, d)
        cert = lct_diag_fJ2(n, d)
        lct_fj2 = cert.value
        params = {"n": n, "d": d}
        expected_equal = d == 2 or d >= n
        expected_strict = 3 <= d < n
        expected_above = d < n
    elif family == "determinantal":
        alpha = det_roots(n).min_exponent
        cert = lct_det_fJ2(n, budget=budget)
        lct_fj2 = cert.value
        params = {"n": n}
        expected_equal = True
        expected_strict = False
        expected_above = True
    else:
        raise ValueError(f"unknown family {family!r}")
    lct_f = min(alpha, Fraction(1))
    equality = alpha == lct_fj2
    strict = alpha > lct_fj2
    above = lct_fj2 > 1
    consistent = (
        alpha >= lct_fj2
        and equality == expected_equal
        and strict == expected_strict
        and above == expected_above
        and (above or lct_fj2 == lct_f)
    )
    return FamilyReport(
        family=family,
        params=params,
        alpha_tilde=alpha,
        lct_f=lct_f,
        lct_fJ2=lct_fj2,
        inequality_holds=alpha >= lct_fj2,
        equality=equality,
        strict=strict,
        lct_fJ2_above_one=above,
        regime_consistent=consistent,
    )


@dataclass
class CorDReport:
    """Outcome of the derived-ideal closure check on one monomial ideal."""

    ideal: str
    lct_a: object
    lct_closure: Optional[Fraction]
    equal: Optional[bool]
    skipped: bool
    note: str = ""


def check_corD(a: IdealGens, budget=None) -> CorDReport:
    """Check lct(a + D(a)^2) == lct(a) for a monomial ideal with lct < 1.

    Ideals with lct >= 1 fall outside the hypothesis and are skipped with a
    notice rather than failed.  ``budget`` bounds each of the two Newton
    walks (see :func:`newton_lct_certificate`).
    """
    base = newton_lct(a, budget)
    if base == math.inf or base >= 1:
        return CorDReport(
            ideal=str(a),
            lct_a=base,
            lct_closure=None,
            equal=None,
            skipped=True,
            note="hypothesis lct < 1 not met; skipped",
        )
    closure = ideal_sum(a, ideal_power(ideal_D(a), 2))
    val = newton_lct(closure, budget)
    return CorDReport(
        ideal=str(a),
        lct_a=base,
        lct_closure=val,
        equal=val == base,
        skipped=False,
    )
