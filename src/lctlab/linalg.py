"""Exact linear algebra over the rationals, on sparse dict rows.

:class:`SparseEliminator` is the one elimination kernel: ideal membership
solves with it, Milnor-number colengths read its rank, and ``solve_dense``,
``rank_dense`` and ``det_dense`` are front doors over it for small dense
matrices.  Pivots are chosen by smallest numerator bit length (then smallest
column key), so every result is reproducible regardless of dict order.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _bitlen(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    return abs(c).bit_length()


class SparseEliminator:
    """Incremental row reduction; rows are dicts mapping column key -> coeff.

    Column keys only need a total order.  ``add_row`` reduces the row against
    the pivots seen so far and, if anything survives, records a new pivot.
    A row added with a ``tag`` also remembers how it was reduced, which lets
    :meth:`solve` write a target as a combination of the tagged rows; rows
    without a tag skip that bookkeeping, and ``solve`` then cannot be used.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> reduced row (leading coeff 1), by insertion
        self.leads = []  # leading coefficient of each pivot row before scaling
        self._made = {}  # pivot column -> (tag, reduction steps) of a tagged row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict, steps=None) -> dict:
        """The residue of ``row`` modulo the pivot rows; each subtraction of
        factor * pivot row is appended to ``steps``, if given, as (column, factor)."""
        row = {k: v for k, v in row.items() if v}
        while row:
            hit = None
            for col in row:
                if col in self.pivots:
                    hit = col
                    break
            if hit is None:
                return row
            factor = row[hit]
            if steps is not None:
                steps.append((hit, factor))
            for col, coeff in self.pivots[hit].items():
                v = row.get(col, 0) - factor * coeff
                if v:
                    row[col] = v
                else:
                    row.pop(col, None)
        return row

    def add_row(self, row: dict, tag=None) -> bool:
        """Insert a row; returns True if it increased the rank."""
        steps = None if tag is None else []
        red = self.reduce(row, steps)
        if not red:
            return False
        pivot = min(red, key=lambda c: (_bitlen(red[c]), c))
        lead = Fraction(red[pivot])
        inv = 1 / lead
        self.pivots[pivot] = {c: v * inv for c, v in red.items()}
        self.leads.append(lead)
        if tag is not None:
            self._made[pivot] = (tag, steps)
        return True

    def solve(self, target: dict):
        """Nonzero coefficients {tag: c} with sum(c * row) == target over the
        tagged rows, or None when the target is not in their span."""
        steps = []
        if self.reduce(target, steps):
            return None
        weight = {}
        for col, factor in steps:
            weight[col] = weight.get(col, 0) + factor
        # pivot row k is (row_k - sum of its steps) / lead_k, and its steps
        # only name earlier pivots, so one backward sweep unwinds them all
        out = {}
        for col, lead in zip(reversed(self.pivots), reversed(self.leads)):
            w = weight.get(col)
            if not w:
                continue
            tag, made = self._made[col]
            w = w / lead
            out[tag] = out.get(tag, 0) + w
            for hit, factor in made:
                weight[hit] = weight.get(hit, 0) - w * factor
        return {tag: c for tag, c in out.items() if c}


def _dense_rows(matrix) -> SparseEliminator:
    elim = SparseEliminator()
    for row in matrix:
        elim.add_row({j: v for j, v in enumerate(row) if v})
    return elim


def solve_dense(rows, rhs):
    """Solve ``rows @ x == rhs`` exactly; rows are lists of coefficients.

    Returns a list of Fractions or None when the system is inconsistent.
    A variable whose column depends on the columns before it is set to 0.
    """
    ncols = len(rows[0]) if rows else 0
    elim = SparseEliminator()
    for j in range(ncols):
        elim.add_row({i: row[j] for i, row in enumerate(rows) if row[j]}, tag=j)
    x = elim.solve({i: b for i, b in enumerate(rhs) if b})
    return None if x is None else [Fraction(x.get(j, 0)) for j in range(ncols)]


def rank_dense(matrix) -> int:
    return _dense_rows(matrix).rank


def det_dense(matrix):
    """Exact determinant of a square matrix: the signed product of the pivots.

    The sign is that of the permutation taking pivot columns, in the order
    the pivots were found, to the column order.
    """
    n = len(matrix)
    elim = _dense_rows(matrix)
    if elim.rank < n:
        return Fraction(0)
    cols = list(elim.pivots)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return math.prod(elim.leads, start=Fraction((-1) ** inversions))
