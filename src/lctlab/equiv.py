"""Formal equivalence of series singularities at finite truncation order.

Two constructions, both returning explicit coordinate changes that are
verified by direct substitution:

* :func:`morsify` splits off the nondegenerate quadratic part of a
  multiplicity-2 germ: a rational linear change diagonalizes the quadratic
  form, then each diagonal variable is cleaned by completing the square
  until the germ is ``sum(a_i x_i^2) + h(rest)`` with ``mult(h) >= 3``.

* :func:`tougeron` absorbs a perturbation g lying in the square of the
  Jacobian ideal into f (for ``mult(f) >= 3``) by a Newton-style sequence of
  near-identity substitutions; the defect is squared at every step, so
  O(log N) steps reach any truncation order N.

Everything is certified modulo ``m^N`` only; that is the computable content
of the corresponding formal statements, whose limits converge m-adically.

Implementation note on ``tougeron``: each step needs the current residual
written as a combination of products of partials of the *current* germ.
Instead of solving a linear system per step, the witness matrix is
transported through the substitution by an exactly computed transition
matrix, inverted by Newton doubling, so the whole iteration stays inside
truncated matrix algebra over polynomials.  Each step makes one Taylor
expansion of the germ F along its shift g: the new germ F(x + g) is read off
the quadratic remainder W that the transport needs anyway, and the transition
matrix reads the same divided powers D^beta F.  Each matrix entry and each
sum of products of a step (shifts, check, W, V, new germ) is one ``dot``, with
no polynomial built per term.  As in a Newton iteration, each step works at
its own precision only, read off multiplicities the step can see: the
witness H is kept mod m^wit_order, wit_order = N - 2 mult(J_f); W and the
divided powers it reads are built mod m^(wit_order - 2 mult(H)), because W
only ever meets two shifts or two copies of H; the transition inverse B and
everything it is built from mod m^(wit_order - mult(H_mid)), because B only
meets H_mid, and not at all once that precision is 1 (B = I there).  The
shifts, and so every map, are the same as at full precision.  :func:`tougeron`,
the one entry into the absorption, reads g from its verified witness;
:func:`formal_equiv_rank2` is :func:`morsify` of f + g followed by
:func:`tougeron` on the residual germ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .jacobian import (
    MembershipWitness,
    NotMember,
    _ideal,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
    quadratic_form_matrix,
    quadratic_rank,
)
from .linalg import det_dense
from .polyring import (
    Polynomial,
    TruncatedSeries,
    _image_list,
    _known,
    _linear_part,
    _mat_mul,
    _newton_inverse,
    _norm_coeff,
    _Powers,
    _taylor_shift,
    _unit_exponents,
    divided_power,
    dot,
    monomials_below,
    partial_derivative,
    series_inverse,
    series_sqrt,
    substitute,
    substitute_shifted,
)


class RankDropError(ValueError):
    """The quadratic rank of f+g dropped below that of f.

    The rank-preserving hypothesis fails for special perturbations; this is
    a reported condition, not a bug.
    """

    def __init__(self, rank_f: int, rank_fg: int):
        super().__init__(
            f"rank of the perturbed quadratic part dropped: {rank_fg} < {rank_f}"
        )
        self.rank_f = rank_f
        self.rank_fg = rank_fg


class CoordinateMap:
    """A substitution x_i -> image_i defining a local automorphism mod m^N.

    Images obey :func:`_image_list` (one per variable, zero constant term),
    a series image is known at least mod m^N (:func:`_known`), and the linear
    parts form an invertible matrix (unit Jacobian determinant at the origin),
    which is exactly the automorphism criterion for formal coordinate changes.
    """

    __slots__ = ("nvars", "images", "order", "_shifts")

    def __init__(self, images, order: int):
        if order < 2:
            raise ValueError(
                f"a coordinate map needs order >= 2, got {order}: mod m^1 every image is 0"
            )
        polys = _image_list([_known(im, order, f"image of x{k}", "map") for k, im in enumerate(images, 1)])
        self.nvars = len(polys)
        self.images = tuple(TruncatedSeries(p, order) for p in polys)
        self.order = order
        self._shifts = None  # image_i - x_i, kept by the maps ``shift`` builds
        if not self.jacobian_at_zero():
            raise ValueError("map is not an automorphism: Jacobian vanishes at 0")

    # construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, nvars: int, order: int) -> "CoordinateMap":
        return cls(
            [Polynomial.variable(nvars, i) for i in range(1, nvars + 1)], order
        )

    @classmethod
    def shift(cls, shifts, order: int) -> "CoordinateMap":
        """The map x_i -> x_i + g_i for shifts of multiplicity >= 2, each read by
        :func:`_known`.  It keeps the shifts mod m^order, which :meth:`then` reads."""
        gs = [_known(g, order, f"shift of x{k}", "map") for k, g in enumerate(shifts, 1)]
        gs = _image_list(gs, what="shift")
        cmap = cls([Polynomial.variable(g.nvars, i) + g for i, g in enumerate(gs, start=1)], order)
        cmap._shifts = gs
        return cmap

    @classmethod
    def linear(cls, matrix, order: int) -> "CoordinateMap":
        """x_i -> sum_j matrix[i][j] * x_j (matrix must be invertible)."""
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            widths = "/".join(str(w) for w in sorted({len(row) for row in matrix}))
            raise ValueError(f"a linear map needs a square matrix, got shape {n}x{widths}")
        units = _unit_exponents(n)
        return cls([Polynomial(n, dict(zip(units, row))) for row in matrix], order)

    # queries ---------------------------------------------------------------

    def linear_part(self):
        return _linear_part([im.poly for im in self.images])

    def jacobian_at_zero(self):
        return det_dense(self.linear_part())

    def apply(self, f, order=None) -> TruncatedSeries:
        n = self.order if order is None else min(order, self.order)
        return substitute(f, self.images, n)

    def then(self, other: "CoordinateMap") -> "CoordinateMap":
        """The map realizing: substitute along self, then along other.

        ``self.then(other).apply(f) == other-substitution of self.apply(f)``.
        Each image of self is Taylor-expanded along the shifts
        ``other.images[i] - x_i``, which a map built by :meth:`shift` keeps.
        """
        order = min(self.order, other.order)
        n = other.nvars
        shifts = other._shifts
        if shifts is None:
            shifts = [other.images[i].poly - Polynomial.variable(n, i + 1) for i in range(n)]
        powers = _Powers(_image_list(shifts, self.nvars, "shift"), order)  # one g^alpha cache for all n
        images = [_taylor_shift(im.poly, powers) for im in self.images]
        return CoordinateMap(images, order)

    def __repr__(self):
        ims = ", ".join(str(im.poly) for im in self.images)
        return f"CoordinateMap([{ims}], order={self.order})"


def verify_map(f, target, cmap: CoordinateMap, order=None):
    """Exact check that substituting along cmap sends f to target mod m^N.

    Returns ``(True, None)`` or ``(False, first_differing_degree)``; refuses an order above cmap's
    and, by :func:`_known`, an f or target given as a series known below the order.
    """
    n = cmap.order if order is None else order
    if n > cmap.order:
        raise ValueError(f"verify_map at order {n} reads past the map's order {cmap.order}")
    image = cmap.apply(_known(f, n, "f", "check"), n)
    diff = image.poly - _known(target, n, "target", "check")
    if diff.is_zero():
        return True, None
    return False, diff.multiplicity()


# ----------------------------------------------------------------------
# the Jacobian-square absorption iteration


def _witness_matrix(f: Polynomial, g_witness, order):
    """``(H, g)``: g the witnessed element of J_f^2, a series known mod the
    witness's order read by :func:`_known`, and ``sum H[i][j] * d_i f * d_j f = g``.

    Refuses anything but a verified witness over the generators of J_f^2 as
    ``ideal_power`` lists them: ``_ideal`` of the pair products, which
    re-sorts and prunes products of monomials, so each generator goes to the
    first unused pair (i, j), i <= j, it equals.
    """
    if isinstance(g_witness, NotMember):
        raise ValueError(f"g is not in the Jacobian-square ideal modulo m^{g_witness.order}")
    n = f.nvars
    partials = jacobian_ideal(f).gens
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    products = [partials[i] * partials[j] for i, j in pairs]
    if [g.terms for g in g_witness.gens.gens] != [g.terms for g in _ideal(n, products).gens]:
        raise ValueError("witness generators are not the Jacobian-square generators of f")
    if not g_witness.verify():
        raise ValueError("witness does not re-expand to its target")
    g = _known(TruncatedSeries(g_witness.target, g_witness.order), order, "witnessed g", "map")
    H = [[Polynomial.zero(n)] * n for _ in range(n)]
    for gen, coeff in zip(g_witness.gens.gens, g_witness.coefficients):
        k = products.index(gen)
        products[k] = None
        i, j = pairs[k]
        H[i][j] = H[i][j] + coeff.poly
    return H, g


def tougeron(f: Polynomial, g_witness: MembershipWitness, order: int) -> CoordinateMap:
    """Coordinate change sending f to f + g mod m^order, for g in J_f^2.

    The one entry into the absorption.  ``g_witness`` must certify membership
    of g in the square of the Jacobian ideal (generators ordered as
    ``ideal_power`` of ``jacobian_ideal(f)`` lists them) at order >= the
    requested one.  g is read from the witness target, and the witness
    coefficients give the matrix H with
    ``g = sum_{i,l} H[i][l] * partial_i(f) * partial_l(f)``.
    The composed map is checked by :func:`verify_map` against f + g before
    being returned; a failure names the first degree where they differ.
    """
    if order < 2:
        raise ValueError(
            f"tougeron needs order >= 2, got {order}: mod m^1 no map is an automorphism"
        )
    d = f.multiplicity()
    if d < 3:
        raise ValueError("tougeron needs mult(f) >= 3; use formal_equiv_rank2 for rank cases")
    H, g = _witness_matrix(f, g_witness, order)
    n = f.nvars
    target = TruncatedSeries(f + g, order)

    psi = CoordinateMap.identity(n, order)
    if g.is_zero():
        return psi

    jmult = d - 1  # mult(J_f): the degree-d part of f has a nonzero partial (Euler)
    wit_order = max(order - 2 * jmult, 1)
    H = [[H[i][l].truncate(wit_order) for l in range(n)] for i in range(n)]
    F = TruncatedSeries(f, order)
    a_floor = 0
    cap = math.ceil(math.log2(order + 1)) + 1  # step bound for defect squaring
    prev_res_mult = None

    for _step in range(cap):
        residual = target - F
        res_mult = residual.multiplicity()
        if prev_res_mult is not None:
            if not res_mult > prev_res_mult:
                raise AssertionError("residual multiplicity failed to increase")
            if res_mult < min(a_floor + 2 * jmult, order):
                raise AssertionError("residual multiplicity below the step bound")
        prev_res_mult = res_mult

        partials = [partial_derivative(F.poly, i) for i in range(1, n + 1)]
        gs = [dot(n, zip(H[i], partials), order - jmult + 1) for i in range(n)]
        # sum_i d_i F * g_i is sum H[i][l] d_i F d_l F mod m^order, because
        # every d_i F has multiplicity >= jmult
        recon = dot(n, zip(partials, gs), order)
        if recon != residual.poly:
            raise AssertionError("witness lost track of the residual")
        for gi in gs:
            if not gi.is_zero() and gi.multiplicity() < a_floor + jmult:
                raise AssertionError("shift multiplicity below the step bound")

        psi = psi.then(CoordinateMap.shift(gs, order))
        live_mults = [gi.multiplicity() for gi in gs if not gi.is_zero()]
        if not live_mults:
            raise AssertionError("nonzero residual with identically zero shifts")
        top = max(live_mults)
        blocked = wit_order + 2 * top + 1  # cost that excludes a coordinate
        g_mults = [gi.multiplicity() if not gi.is_zero() else blocked for gi in gs]
        # F(x + g) = F + sum_i d_i F g_i + sum_{|alpha| >= 2} D^alpha F g^alpha.
        # W[(i1,i2)] collects D^alpha F * g^(alpha - e_i1 - e_i2) over alpha
        # whose two smallest indices are (i1, i2), so F(x + g) = F + recon +
        # sum W * g_i1 * g_i2.  With hm the least multiplicity of an entry of
        # H, every g_i has multiplicity >= hm + jmult; W is read only through
        # W * g_i1 * g_i2 mod m^order and H^T (-W) H mod m^wit_order, so it is
        # needed mod m^p_W, p_W = wit_order - 2 hm, and so are the D^beta F
        # it reads; each g^rest is read only against its D^alpha F, so mod
        # m^(p_W - mult D^alpha F).  D^beta F mod m^p_W reads F below
        # m^(p_W + |beta|) only.
        hm = min(h.multiplicity() for row in H for h in row)
        p_W = wit_order - 2 * hm
        gpow = _Powers([gi.truncate(p_W) for gi in gs], p_W)
        F_below = functools.cache(lambda k: F.poly.truncate(p_W + k))

        @functools.cache
        def D(beta):  # D^beta F mod m^p_W, one divided power per exponent
            return divided_power(F_below(sum(beta)), beta)

        W = {}
        for alpha in monomials_below(g_mults, p_W + 2 * top):
            if sum(alpha) < 2:
                continue
            i1, i2 = [i for i, a in enumerate(alpha) for _ in range(min(a, 2))][:2]
            rest = tuple(a - (i == i1) - (i == i2) for i, a in enumerate(alpha))
            if sum(r * m for r, m in zip(rest, g_mults)) >= p_W:
                continue
            dpf = D(alpha)
            if not dpf.is_zero():
                W.setdefault((i1, i2), []).append((dpf, gpow.get(rest, p_W - dpf.multiplicity())))
        W = {key: dot(n, pairs, p_W) for key, pairs in W.items()}
        quad = [(w, gs[i1].mul_truncated(gs[i2], order)) for (i1, i2), w in W.items()]
        F_new = TruncatedSeries(F.poly + recon + dot(n, quad, order), order)
        if (target - F_new).is_zero():
            F = F_new
            break

        # transport the witness to the partials of the new germ, whose
        # residual is -sum W * g_i1 * g_i2
        minus_W = [[-W.get((i1, i2), Polynomial.zero(n)) for i2 in range(n)] for i1 in range(n)]
        H_mid = _mat_mul(_mat_mul(list(zip(*H)), minus_W, wit_order), H, wit_order)

        # transition: grad(F) = B * grad(F_new) with
        # B = inverse of (I + A)(I + M), A[i][j] = d_i g_j,
        # M[u][v] = sum_w V[u][w] H[w][v],
        # V[u][w] = sum over alpha with first index w of D^alpha(d_u F) g^(alpha-e_w),
        # where D^alpha d_u = (alpha_u + 1) D^(alpha+e_u).
        # B enters only as B^T H_mid B mod m^wit_order and B - I has
        # multiplicity >= 1, so with mu the least multiplicity of an entry of
        # H_mid, B and all it is built from are needed mod m^p_B,
        # p_B = wit_order - mu; mu >= 2 hm, so p_B <= p_W and gpow (asked
        # mod m^p_B) and D serve V.  For p_B <= 1, B = I there and the new
        # witness is H_mid.
        mu = min(h.multiplicity() for row in H_mid for h in row)
        p_B = wit_order - mu
        if p_B <= 1:
            H = H_mid
        else:
            A = [
                [partial_derivative(gs[j], i + 1).truncate(p_B) for j in range(n)] for i in range(n)
            ]
            V = [[[] for _ in range(n)] for _ in range(n)]
            for alpha in monomials_below(g_mults, p_B + top)[1:]:  # alpha != 0
                w_idx = next(i for i, a in enumerate(alpha) if a)
                rest = tuple(a - (i == w_idx) for i, a in enumerate(alpha))
                if sum(r * m for r, m in zip(rest, g_mults)) >= p_B:
                    continue
                grest = gpow.get(rest, p_B)
                for u in range(n):
                    dpu = D(alpha[:u] + (alpha[u] + 1,) + alpha[u + 1:])
                    if not dpu.is_zero():
                        V[u][w_idx].append((dpu * (alpha[u] + 1) if alpha[u] else dpu, grest))
            V = [[dot(n, pairs, p_B) for pairs in row] for row in V]
            M = _mat_mul(V, H, p_B)
            AM = _mat_mul(A, M, p_B)
            # E := A + M + A*M, so (I+A)(I+M) = I + E and the new witness is
            # B^T H_mid B with B = (I + E)^-1
            E = [[A[i][j] + M[i][j] + AM[i][j] for j in range(n)] for i in range(n)]
            B = _newton_inverse(E, p_B)
            H = _mat_mul(_mat_mul(list(zip(*B)), H_mid, wit_order), B, wit_order)
        F = F_new
        a_floor = 2 * a_floor + 1
    else:
        raise AssertionError("absorption did not converge within the step cap")

    ok, first_bad = verify_map(f, target, psi, order)
    if not ok:
        raise AssertionError(f"absorption map failed final verification at degree {first_bad}")
    return psi


# ----------------------------------------------------------------------
# morsification


def _squares(n, coeffs):  # sum(coeffs[i] * x_{i+1}^2)
    return Polynomial(n, {tuple(2 * (k == i) for k in range(n)): c for i, c in enumerate(coeffs)})


class _SplitNormalForm:
    """``normal_form`` for results carrying diag_coeffs, residual and order."""

    def normal_form(self) -> TruncatedSeries:
        squares = _squares(self.residual.nvars, self.diag_coeffs)
        return TruncatedSeries(squares + self.residual.poly, self.order)


@dataclass
class MorsifyResult(_SplitNormalForm):
    """Outcome of splitting off the quadratic part.

    ``map`` sends f to ``sum(diag_coeffs[i] * x_{i+1}^2) + residual`` modulo
    m^order, with the residual supported on the variables past the rank.
    """

    map: CoordinateMap
    diag_coeffs: list
    residual: TruncatedSeries
    order: int


def _diagonalize_quadratic(S):
    """Congruence transform: returns (P, diag) with P^T S P diagonal; P is
    exactly invertible.  The nonzero diagonal entries come first by
    construction: no later step touches a pivot S[k][k] once set, and the
    loop stops at the first all-zero block."""
    n = len(S)
    S = [[Fraction(v) for v in row] for row in S]
    P = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def col_axpy(dst, src, factor):
        # column_dst += factor * column_src, congruently on S, plainly on P
        for i in range(n):
            P[i][dst] += factor * P[i][src]
        for i in range(n):
            S[i][dst] += factor * S[i][src]
        for j in range(n):
            S[dst][j] += factor * S[src][j]

    def col_swap(a, b):
        for i in range(n):
            P[i][a], P[i][b] = P[i][b], P[i][a]
        for i in range(n):
            S[i][a], S[i][b] = S[i][b], S[i][a]
        for j in range(n):
            S[a][j], S[b][j] = S[b][j], S[a][j]

    for k in range(n):
        if not S[k][k]:
            # prefer a later variable with nonzero diagonal (largest value,
            # then lowest index), else create one from an off-diagonal entry
            best = None
            for i in range(k + 1, n):
                if S[i][i] and (best is None or abs(S[i][i]) > abs(S[best][best])):
                    best = i
            if best is not None:
                col_swap(k, best)
            else:
                hit = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if S[i][j]:
                            hit = (i, j)
                            break
                    if hit:
                        break
                if hit is None:
                    break  # remaining block is zero: rank reached
                i, j = hit
                if i != k:
                    col_swap(k, i)
                col_axpy(k, j, Fraction(1))
        piv = S[k][k]
        for j in range(k + 1, n):
            if S[k][j]:
                col_axpy(j, k, -S[k][j] / piv)
    return P, [_norm_coeff(S[i][i]) for i in range(n) if S[i][i]]


def _split_by_variable(poly: Polynomial, k: int):
    """(a, b) with poly = x_k^2 * a + x_k * b + (terms free of x_k), by the
    exponent of x_k (1-indexed); b is free of x_k."""
    n = poly.nvars
    i = k - 1
    a, b = {}, {}
    for mono, coeff in poly.terms.items():
        e = mono[i]
        if e >= 2:
            m = list(mono)
            m[i] = e - 2
            key = tuple(m)
            a[key] = a.get(key, 0) + coeff
        elif e == 1:
            m = list(mono)
            m[i] = 0
            b[tuple(m)] = coeff
    return Polynomial(n, a), Polynomial(n, b)


def _morsify_variable(F: TruncatedSeries, k: int, order: int):
    """Clean variable k of a germ whose processed part is already diagonal.

    Returns (the map x_k -> x_k + S, new F, diagonal coefficient a_k).  The
    b-part is absorbed by completing the square (its multiplicity strictly
    increases each pass, so the loop terminates) and the x_k-dependence of
    the leading coefficient is removed by a unit rescaling of x_k.  Every
    square-completing shift -b/(2 a_k) is free of x_k, so composing them is
    adding them to the running shift S, and the closing rescaling
    x_k -> x_k * q composes with it as x_k + (S + x_k (q - 1)).
    """
    n = F.nvars
    quad = F.poly.graded_part(2)
    shifts = [Polynomial.zero(n)] * n
    S = Polynomial.zero(n)
    a, b = _split_by_variable(F.poly, k)
    a_k = a.constant_term
    if not a_k:
        raise ValueError(f"no x{k}^2 term; diagonalize the quadratic part first")
    guard = 0
    while not b.truncate(order - 1).is_zero():
        prev_mult = b.multiplicity()
        shifts[k - 1] = b * (Fraction(-1, 2) / Fraction(a_k))
        F = substitute_shifted(F.poly, shifts, order)
        S = S + shifts[k - 1]
        if F.poly.graded_part(2) != quad:
            raise AssertionError("completing the square disturbed the quadratic part")
        a, b = _split_by_variable(F.poly, k)
        if not b.truncate(order - 1).is_zero() and not b.multiplicity() > prev_mult:
            raise AssertionError("b-part multiplicity failed to increase")
        guard += 1
        if guard > order + 2:
            raise AssertionError("completing the square did not terminate")
    # rescale x_k so the x_k^2 block has the constant coefficient a_k:
    # solve q = 1 / sqrt(a(x with x_k -> x_k q) / a_k) by fixed point
    if a.truncate(max(order - 2, 1)) != Polynomial.constant(n, a_k):
        sub_order = max(order - 2, 1)
        xs = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        q = Polynomial.constant(n, 1)
        for _ in range(order + 1):
            images = list(xs)
            images[k - 1] = xs[k - 1].mul_truncated(q, sub_order)
            a_sub = substitute(a, images, sub_order).poly
            u = TruncatedSeries(a_sub * (Fraction(1) / Fraction(a_k)), sub_order)
            q_new = series_inverse(series_sqrt(u)).poly
            if q_new == q:
                break
            q = q_new
        shifts[k - 1] = Polynomial.variable(n, k).mul_truncated(
            q - Polynomial.constant(n, 1), order
        )
        F = substitute_shifted(F.poly, shifts, order)
        S = S + shifts[k - 1]
        a, b = _split_by_variable(F.poly, k)
        if a != Polynomial.constant(n, a_k) or not b.truncate(order - 1).is_zero():
            raise AssertionError("unit rescaling failed to normalize the block")
    shifts[k - 1] = S
    return CoordinateMap.shift(shifts, order), F, a_k


def morsify(f, order: int) -> MorsifyResult:
    """Split a multiplicity-2 germ as diagonal quadratic part plus residual.

    The coordinate change is assembled from an exact congruence
    diagonalization of the quadratic form followed by completing the square
    in each diagonal variable; the quadratic part is preserved at every
    elementary step and the result satisfies
    ``substitute(f, map) == sum(a_i x_i^2) + residual mod m^order`` with the
    residual of multiplicity >= 3 in the variables past the rank.  f is a
    Polynomial or a series known at least mod m^order.
    """
    if order < 3:
        raise ValueError(f"morsify needs order >= 3, got {order}: mod m^2 the quadratic part is 0")
    fp = _known(f, order, "f", "map")
    if fp.constant_term:
        raise ValueError("morsify needs f(0) = 0")
    if fp.multiplicity() != 2:
        raise ValueError("morsify needs multiplicity exactly 2")
    n = fp.nvars
    P, diag = _diagonalize_quadratic(quadratic_form_matrix(fp))
    r = len(diag)
    cmap = CoordinateMap.linear(P, order)
    F = cmap.apply(fp, order)
    for k in range(1, r + 1):
        step_map, F, a_k = _morsify_variable(F, k, order)
        if a_k != diag[k - 1]:
            raise AssertionError("diagonal coefficient drifted during cleaning")
        cmap = cmap.then(step_map)
    res = TruncatedSeries(F.poly - _squares(n, diag), order)
    if not res.is_zero():
        if res.poly.multiplicity() < 3:
            raise AssertionError("residual multiplicity below 3")
        if any(v <= r for v in res.poly.variables_used()):
            raise AssertionError("residual touches a diagonalized variable")
    result = MorsifyResult(cmap, diag, res, order)
    ok, first_bad = verify_map(fp, result.normal_form(), cmap, order)
    if not ok:
        raise AssertionError(f"morsify failed to verify at degree {first_bad}")
    return result


# ----------------------------------------------------------------------
# rank-preserving absorption for multiplicity 2


@dataclass
class Rank2Result(_SplitNormalForm):
    """Coordinate change sending f+g to ``sum(c_i x_i^2) + h`` mod m^order."""

    map: CoordinateMap
    diag_coeffs: list
    residual: TruncatedSeries
    rank: int
    order: int
    steps: list


def _restrict_vars(poly: Polynomial, keep):
    """Project a polynomial supported on `keep` (1-indexed) to that subring."""
    idx = [v - 1 for v in keep]
    out = {}
    for mono, coeff in poly.terms.items():
        for i, e in enumerate(mono):
            if e and (i + 1) not in keep:
                raise ValueError("polynomial not supported on the kept variables")
        out[tuple(mono[i] for i in idx)] = coeff
    return Polynomial(len(keep), out)


def _extend_vars(poly: Polynomial, nvars: int, positions):
    """Inverse of _restrict_vars: re-embed into nvars variables."""
    out = {}
    for mono, coeff in poly.terms.items():
        full = [0] * nvars
        for e, pos in zip(mono, positions):
            full[pos - 1] = e
        out[tuple(full)] = coeff
    return Polynomial(nvars, out)


def split_form(f: Polynomial):
    """Recognize ``f = sum(a_i x_i^2) + h(x_{r+1}..x_n)`` and return (r, diag, h).

    Raises if f is not in split normal form (run morsify first).
    """
    n = f.nvars
    quad = f.graded_part(2)
    diag = {}
    for mono, coeff in quad.terms.items():
        if sorted(mono, reverse=True)[0] != 2 or sum(mono) != 2 or mono.count(2) != 1:
            raise ValueError("quadratic part is not diagonal; morsify first")
        diag[mono.index(2) + 1] = coeff
    r = len(diag)
    if sorted(diag) != list(range(1, r + 1)):
        raise ValueError("diagonal variables must be the leading ones; reorder first")
    h = f - quad
    if not h.is_zero():
        if h.multiplicity() < 3:
            raise ValueError("higher part must have multiplicity >= 3")
        if any(v <= r for v in h.variables_used()):
            raise ValueError("higher part must avoid the diagonal variables")
    return r, [diag[i] for i in range(1, r + 1)], h


def formal_equiv_rank2(f: Polynomial, g_witness: MembershipWitness, order: int) -> Rank2Result:
    """Absorb g in J_f^2 into a split multiplicity-2 germ, preserving rank.

    Pipeline: :func:`morsify` f+g, which diagonalizes the perturbed quadratic
    part and cleans the diagonal variables; then absorb the leftover
    perturbation of the residual germ (it lands in the square of the
    residual's own Jacobian ideal) with :func:`tougeron`.
    Raises :class:`RankDropError` when rank((f+g)_2) < rank(f_2): that is the
    hypothesis of the statement, reported rather than repaired.
    """
    n = f.nvars
    r, _diag, h = split_form(f)
    fg = f + _witness_matrix(f, g_witness, order)[1]  # refuses all but a verified J_f^2 witness
    if any(any(row[r:]) for row in quadratic_form_matrix(fg)):
        raise AssertionError("perturbed quadratic part leaks past the rank block")
    rank_fg = quadratic_rank(fg)
    if rank_fg != r:
        raise RankDropError(r, rank_fg)

    steps = ["linear diagonalization of the perturbed quadratic part"]
    if r:
        split = morsify(fg, order)
        cmap, c, resid = split.map, split.diag_coeffs, split.residual.poly
        steps += [f"morsification with respect to x{k}" for k in range(1, r + 1)]
    else:
        cmap, c, resid = CoordinateMap.identity(n, order), [], fg.truncate(order)

    # resid lives on the variables past the rank (morsify checks that); it is
    # h plus a perturbation q in the square of its own Jacobian ideal
    q = (resid - h).truncate(order)
    if not q.is_zero():
        rest_vars = list(range(r + 1, n + 1))
        hq_sub = _restrict_vars(resid, rest_vars)
        jhq2 = ideal_power(jacobian_ideal(hq_sub), 2)
        wit = membership_truncated(_restrict_vars(-q, rest_vars), jhq2, order)
        theta = tougeron(hq_sub, wit, order)
        images = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        for pos, im in zip(rest_vars, theta.images):
            images[pos - 1] = _extend_vars(im.poly, n, rest_vars)
        cmap = cmap.then(CoordinateMap(images, order))
        steps.append("absorption of the residual perturbation")

    result = Rank2Result(
        map=cmap,
        diag_coeffs=c,
        residual=TruncatedSeries(h, order),
        rank=r,
        order=order,
        steps=steps,
    )
    ok, first_bad = verify_map(fg, result.normal_form(), cmap, order)
    if not ok:
        raise AssertionError(f"rank-2 absorption failed to verify at degree {first_bad}")
    return result
