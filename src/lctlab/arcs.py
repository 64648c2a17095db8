"""Jet counting over prime fields and contact-locus counting.

A jet of order m assigns to each of the n coordinates a polynomial of
degree <= m in t with coefficients mod p; the contact order of an ideal
along the jet is the t-adic order of its generators evaluated on the jet.
Counts are exact integers from a recursion over t-degree levels.  Level 0
keeps the common zeros x0 of the s generators mod p.  At every level
l >= 1 the t^l coefficient of g_i(jet) is J(x0) c_l + b_i, where J is the
Jacobian mod p, c_l the t^l coefficients of the jet and b_i depends only on
lower levels (Taylor expansion: c_l enters only through the linear term).
So a constrained level is an affine system over F_p: where J has full row
rank every level contributes p^(n-s) in closed form, and elsewhere only
the solutions of the system are recursed into.  Levels at or above the
contact order are free and counted as a power of p.  The brute-force
reference, one jet at a time, lives in ``tests/oracles.py``.

The closed-form orbit invariants of the determinantal family, which
contact-locus counts of the determinant get compared against, live in
:mod:`lctlab.lct` beside the threshold that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .budget import check_budget
from .expsum import _eval_terms_mod, _int_terms, _require_prime, _residue_grids, _vanishing
from .jacobian import IdealGens
from .polyring import Polynomial, partial_derivative


# ----------------------------------------------------------------------
# jet counting


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


def _rref_mod_p(rows, ncols, p):
    """Reduced row echelon form over F_p, pivoting in the first ncols
    columns only; returns (rows, pivot columns)."""
    rows = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                rows[i] = [(a - c * b) % p for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def count_contact_jets(
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


@dataclass
class CodimEstimate:
    """Least-squares slope of -log(density) against log p; labeled estimate,
    never exact."""

    estimate: float
    residual: float
    points: list


def empirical_codim(data, nvars: int, m: int) -> CodimEstimate:
    """Estimate the codimension of a contact locus from counts at several
    primes: density(p) ~ C * p^(-codim) to leading order.

    data: an iterable of (p, count) at fixed (m, e).  Needs at least two
    distinct primes: with one, the least-squares slope is undetermined.
    """
    data = list(data)  # read twice below, so a generator is materialised once
    if len({p for p, _ in data}) < 2:
        raise ValueError("needs at least two distinct primes")
    pts = []
    for p, count in data:
        density = count / p ** ((m + 1) * nvars)
        if density <= 0:
            raise ValueError("empty contact locus; codimension is infinite")
        pts.append((math.log(p), -math.log(density)))
    # least squares for y = codim * x + c
    k = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = k * sxx - sx * sx
    slope = (k * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / k
    residual = max(abs(y - (slope * x + intercept)) for x, y in pts)
    return CodimEstimate(estimate=slope, residual=residual, points=data)
