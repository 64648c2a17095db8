"""Jet counting over prime fields and contact-locus counting.

A jet of order m assigns to each of the n coordinates a polynomial of
degree <= m in t with coefficients mod p; the contact order of an ideal
along the jet is the t-adic order of its generators evaluated on the jet.
Counts are exact integers from a recursion over t-degree levels.  Level 0
keeps the common zeros x0 of the s generators mod p.  Write the jet as
x0 + y with y of t-order >= 1.  At every level l >= 1 the t^l coefficient
of g_i(x0 + y) is J(x0) c_l + b_i, where J is the Jacobian mod p, c_l the
t^l coefficients of the jet and b_i the t^l coefficient of the terms of
degree >= 2 of the Taylor shift g_i(x0 + y) - g_i(x0), which read only
lower levels.  So a constrained level is an affine system over F_p.

Where J(x0) has full row rank s every level contributes p^(n-s) in closed
form: the rank is decided for all zeros at once on the residue grid, and
the smooth zeros are counted together without visiting one.  Only a
singular zero gets work of its own: one row reduction of J(x0), one Taylor
shift of the generators, and a lift that runs level by level over numpy
batches of nodes, every node over x0 sharing the row operations and kernel,
keeping the nodes whose system is consistent and expanding them by the
kernel (when the shift has no term of degree 2..e-1, every level is
J c = 0 and the count is again a closed form).  Levels at or above the
contact order are free and counted as a power of p.  The reference
recursion one node at a time, and the brute-force count one jet at a time,
live in ``tests/oracles.py``.

The closed-form orbit invariants of the determinantal family, which
contact-locus counts of the determinant get compared against, live in
:mod:`lctlab.lct` beside the threshold that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .expsum import (
    _eval_terms_mod,
    _int_terms,
    _require_prime,
    _residue_grids,
    _taylor_shift,
    _vanishing,
)
from .jacobian import IdealGens
from .polyring import partial_derivative


# ----------------------------------------------------------------------
# jet counting

_BLOCK = 1 << 12  # jet nodes per batch of the lift, so its memory is bounded


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


def _full_row_rank(mats, p):
    """Mask of the matrices in the stack mats (N, s, n) whose rank over F_p
    is s, by one elimination over the whole stack.  Row i, once cleared by
    the rows above it, is zero exactly when it lies in their span; a row
    clears its first nonzero column from the rows below, each scaled by the
    pivot (a unit) rather than divided by it.  With s > n some row is zero."""
    a = mats.copy()
    full = np.ones(len(a), dtype=bool)
    for i in range(a.shape[1]):
        row = a[:, i]
        live = row != 0
        full &= live.any(axis=1)
        if i + 1 < a.shape[1]:
            col = live.argmax(axis=1)[:, None]
            below = a[:, i + 1:]
            hit = np.take_along_axis(below, col[:, None], axis=2)
            piv = np.take_along_axis(row, col, axis=1)[:, None]
            a[:, i + 1:] = (piv * below % p - hit * row[:, None] % p) % p
    return full


def _mul_series(a, b, p):
    """Product mod p of two batches (B, L) of series in t with no constant
    term, cut below t^L; every product is reduced before it is summed."""
    out = np.zeros_like(a)
    for i in range(1, a.shape[1] - 1):
        out[:, i + 1:] += a[:, i, None] * b[:, 1:-i] % p
    return out % p


def _t_coefficients(polys, ys, level, p):
    """The t^level coefficient mod p of each polynomial in polys (term lists
    mod p, of degree >= 2) on every jet y of the batch ys (B, n, L), whose
    coefficients below t^level are set.  A term of degree above the level
    has t-order above it and is skipped; the powers of each y_j are shared."""
    cut = ys[:, :, :level + 1]
    powers = {}

    def power(j, d):
        if (j, d) not in powers:
            powers[j, d] = cut[:, j] if d == 1 else _mul_series(power(j, d - 1), cut[:, j], p)
        return powers[j, d]

    out = np.zeros((len(polys), len(ys)), dtype=np.int64)
    for r, terms in enumerate(polys):
        for mono, c in terms:
            if sum(mono) > level:
                continue
            # y^mono = y^rest * y_last, and of that last product only t^level
            # is read; rest has degree >= 1
            last = max(j for j, d in enumerate(mono) if d)
            rest = list(mono)
            rest[last] -= 1
            head = None
            for j, d in enumerate(rest):
                if d:
                    head = power(j, d) if head is None else _mul_series(head, power(j, d), p)
            coeff = (head * cut[:, last, ::-1] % p).sum(axis=1) % p
            out[r] = (out[r] + c * coeff % p) % p
    return out


def _lift(terms, x0, jac, p, e):
    """Number of choices of the jet levels 1..e-1 over a zero x0 of the
    generators (term lists) where their Jacobian jac (s x n, mod p) has rank
    below s.  The lift runs level by level over batches of at most _BLOCK
    nodes, which share J(x0), its kernel and its row operations."""
    n, s = len(x0), len(terms)
    # [J | I] reduced on the J block: the I block records the row operations
    rows, pivots = _rref_mod_p([jac[i] + [int(i == k) for k in range(s)] for i in range(s)], n, p)
    rank = len(pivots)
    kernel = []
    for col in range(n):
        if col not in pivots:
            vec = [0] * n
            vec[col] = 1
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[col] % p
            kernel.append(vec)
    basis = np.array(kernel, dtype=np.int64).reshape(len(kernel), n)
    width, place = p ** len(kernel), p ** np.arange(len(kernel))
    # the Taylor shifts g(x0 + y) - g(x0) in degrees 2..e-1, taken once and
    # mixed by the row operations: y has t-order >= 1, so a term of degree e
    # or more lies past every constrained level, and degree 1 is J y
    shifts = [
        {a: c % p for a, c in _taylor_shift(t, x0, 1).items() if 2 <= sum(a) < e}
        for t in terms
    ]
    mixed = []
    for row in rows:
        acc = {}
        for r, shift in zip(row[n:], shifts):
            for a, c in shift.items():
                acc[a] = (acc.get(a, 0) + r * c) % p
        mixed.append([(a, c) for a, c in acc.items() if c])
    if not any(mixed):  # every constrained level is J c = 0
        return width ** (e - 1)

    def descend(level, ys):
        """Completions of the batch ys (B, n, e): per node, the system at
        this level is R J c = -[t^level] (R h)(y), with R the row operations
        and R h the mixed shifts."""
        vals = _t_coefficients(mixed, ys, level, p)
        kept = np.flatnonzero(~vals[rank:].any(axis=0))  # the consistent nodes
        if level == e - 1:
            return len(kept) * width
        total = 0
        for lo in range(0, len(kept) * width, _BLOCK):
            parent, combo = np.divmod(np.arange(lo, min(lo + _BLOCK, len(kept) * width)), width)
            parent = kept[parent]
            digits = combo[:, None] // place % p  # weights of the kernel basis
            step = (digits[:, :, None] * basis % p).sum(axis=1)
            step[:, pivots] -= vals[:rank, parent].T
            child = ys[parent]
            child[:, :, level] = step % p
            total += descend(level + 1, child)
        return total

    return descend(1, np.zeros((1, n, e), dtype=np.int64))


def count_contact_jets(
    gens: IdealGens, p: int, m: int, e: int, budget=None
) -> int:
    """Number of order-m jets along which every generator vanishes to order
    >= e in t, over the field with p elements.  Exact.

    Requires m >= 0, 0 <= e <= m + 1 and integer generator coefficients.
    The count recurses over t-degree levels (see module docstring): level 0
    keeps the zeros of the generators mod p.  The zeros where the Jacobian
    has full row rank are found on the residue grid and counted together in
    closed form; each other zero is lifted level by level in batches of
    nodes, solving a linear system over F_p, so p must be prime.  The
    budget guards the volume p^((m+1)n) of the jet space.
    """
    n = gens.nvars
    if m < 0 or e < 0 or e > m + 1:
        raise ValueError(f"need m >= 0 and 0 <= e <= m + 1, got m = {m}, e = {e}")
    terms = [_int_terms(g) for g in gens.gens]  # a Fraction is refused ahead of the budget
    check_budget(p ** ((m + 1) * n), budget, what="jet enumeration", unit="jets")
    _require_prime(p)
    if e == 0:
        return p ** ((m + 1) * n)

    s = len(terms)
    free = p ** (n * (m + 1 - e))  # levels e..m are unconstrained
    zero = np.broadcast_to(_vanishing(terms, _residue_grids(n, p), p), (p,) * n)
    x0s = np.argwhere(zero)
    at = list(x0s.T)
    jac = np.empty((len(x0s), s, n), dtype=np.int64)  # J at each zero, mod p
    for i, g in enumerate(gens.gens):
        for j in range(n):
            jac[:, i, j] = _eval_terms_mod(_int_terms(partial_derivative(g, j + 1)), at, p)
    smooth = _full_row_rank(jac, p)
    # rank s needs s <= n: past that, no zero is smooth and the count is 0
    total = int(np.count_nonzero(smooth)) * p ** (max(n - s, 0) * (e - 1)) * free
    for x0, j0 in zip(x0s[~smooth].tolist(), jac[~smooth].tolist()):
        total += _lift(terms, x0, j0, p, e) * free
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
