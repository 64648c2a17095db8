"""Exact linear algebra over the rationals, on sparse integer dict rows.

:class:`SparseEliminator` is the one elimination kernel: ideal membership
solves with it, Milnor-number colengths read its rank, and ``rank_dense``,
``det_dense`` and ``adjugate_dense`` are front doors over it for small dense
matrices.  ``adjugate_dense`` gives an integer matrix's determinant and
adjugate together, which solves every system on that matrix and on its
transpose at once: the Newton-polyhedron walk of :mod:`lctlab.lct` takes
one per candidate basis.  Up to 3 x 3 it is the closed cofactor form,
from which ``det_dense`` also reads its value, so no such matrix builds an
eliminator.  ``solve_dense`` is a fourth door with no caller in the
library: the test oracle that inverts coordinate maps (``tests/oracles.py``)
solves with it, and the benchmark's traced run looks its name up.

Rows are kept fraction-free (Bareiss, Math. Comp. 22, 1968), with entry
growth held down by gcds rather than by Bareiss's exact division: a row with
rational entries is multiplied once by the lcm of its denominators, a row
with entry ``a`` in the column of a pivot row with lead ``l`` becomes
``(l/g) * row - (a/g) * pivot`` with ``g = gcd(a, l)``, and pivot rows are
stored primitive with a positive lead.  A solve unwinds the steps over the
integers as well, to coefficients over one positive denominator
(:meth:`SparseEliminator.solve_integral`); ``solve`` builds one ``Fraction``
per output coefficient, never one per matrix entry or elimination step.

Every row takes its pivot at its smallest column key, so every result is
reproducible regardless of dict order.  The callers number columns by
degree first, and then the echelon form is a local one: each pivot row
leads with its lowest-degree monomial, and reducing a row against it never
brings in a column below that lead.  The pivot rows are then an echelon
basis for a local ordering, the linear shadow of a standard basis (Greuel
and Pfister, *A Singular Introduction to Commutative Algebra*, standard
bases for local orderings): the rank of the rows truncated below any
degree is the number of pivots below it, which is how Milnor numbers read
one elimination across orders.  A membership solve gains too: a row is
cleared from its lowest degree up and meets few pivot rows, so its entries
stay small.  On a J_f^2 system in two variables at order 10, pivots at the
entry of smallest bit length took 2085 reduction steps and residues of 138
bits; pivots at the lowest column take 443 steps and 28 bits.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integral(row: dict):
    """(nonzero entries of ``row`` as ints, the positive lcm they were
    multiplied by); an all-int row passes through unscaled."""
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = math.lcm(den, v.denominator)
    if den == 1:
        return {k: int(v) for k, v in row.items() if v}, 1
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}, den


class SparseEliminator:
    """Incremental row reduction; rows are dicts mapping column key -> coeff.

    Column keys only need a total order; coefficients are ints or
    Fractions.  ``add_row`` reduces the row against the pivots seen so far
    and, if anything survives, records a new pivot at the smallest column
    key of the residue.  A stored pivot row is never changed again, so its
    lead stays its smallest column.  A row added with a ``tag`` also
    remembers how it was reduced, which lets :meth:`solve` write a target
    as a combination of the tagged rows; rows without a tag skip that
    bookkeeping, and ``solve`` then cannot be used.

    The rows that raise the rank depend only on the order of insertion, and
    a target in their span is a unique combination of them, so what
    ``solve``, ``rank`` and ``det_dense`` return does not depend on the
    pivot rule or on how the rows are scaled; only the individual
    ``leads`` do.
    """

    def __init__(self):
        # pivot column -> primitive integer row with a positive entry there, by insertion
        self.pivots = {}
        self._leads = []  # (numerator, denominator) of each rational lead
        # pivot column -> (tag, integer steps, scale, content) of a tagged row
        self._made = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def leads(self) -> list:
        """The leading coefficient of each pivot row as first reduced over Q
        (the row minus rational multiples of earlier pivot rows), in order."""
        return [Fraction(a, b) for a, b in self._leads]

    def _reduce(self, row: dict, steps=None):
        """(residue, scale): ``scale * row`` minus integer multiples of the
        pivot rows, with no entry left in a pivot column; ``row`` is an int
        row and is consumed.  For each pivot used, (column, multiple) is
        appended to ``steps``, if given, with the multiples taken against
        the final scale."""
        pivots = self.pivots
        muls = [] if steps is not None else None
        scale = 1
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

    def add_row(self, row: dict, tag=None) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row, den = _integral(row)
        steps = None if tag is None else []
        red, scale = self._reduce(row, steps)
        if not red:
            return False
        content = math.gcd(*red.values())
        if content != 1:
            red = {c: v // content for c, v in red.items()}
        pivot = min(red)
        if red[pivot] < 0:
            red = {c: -v for c, v in red.items()}
            content = -content
        # the residue over Q is content * red / (scale * den)
        scale *= den
        self.pivots[pivot] = red
        self._leads.append((content * red[pivot], scale))
        if tag is not None:
            self._made[pivot] = (tag, steps, scale, content)
        return True

    def solve_integral(self, target: dict):
        """({tag: c}, den) with sum(c * row) == den * target over the tagged
        rows, every c a nonzero int and den > 0 the least such denominator,
        or None when the target is not in their span."""
        target, den = _integral(target)
        steps = []
        red, scale = self._reduce(target, steps)
        if red:
            return None
        # den * target is the sum of multiple * pivot row over the steps
        weight = {}
        for col, a in steps:
            weight[col] = weight.get(col, 0) + a
        den *= scale
        # pivot row k is (scale_k * row_k - sum of its steps) / content_k, and
        # its steps only name earlier pivots, so one backward sweep unwinds
        # them; dividing a weight by a content rescales every weight and den
        out = {}
        for col in reversed(self.pivots):
            w = weight.get(col)
            if not w:
                continue
            tag, made, s, content = self._made[col]
            if content != 1:
                g = math.gcd(w, content)
                if content < 0:
                    g = -g
                w //= g
                c = content // g
                if c != 1:
                    den *= c
                    weight = {k: c * v for k, v in weight.items()}
                    out = {t: c * v for t, v in out.items()}
            w_row = w * s if s != 1 else w
            out[tag] = out[tag] + w_row if tag in out else w_row
            for hit, a in made:
                d = w * a
                weight[hit] = weight[hit] - d if hit in weight else -d
        out = {tag: c for tag, c in out.items() if c}
        g = math.gcd(den, *out.values())
        if g != 1:
            den //= g
            out = {tag: c // g for tag, c in out.items()}
        return out, den

    def solve(self, target: dict):
        """Nonzero coefficients {tag: c} with sum(c * row) == target over the
        tagged rows, or None when the target is not in their span."""
        got = self.solve_integral(target)
        if got is None:
            return None
        out, den = got
        return {tag: Fraction(c, den) for tag, c in out.items()}


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


def _det_of(elim: SparseEliminator, n: int) -> Fraction:
    """The determinant of the n rows (or columns) fed to ``elim`` in order:
    the signed product of the pivots, the sign that of the permutation
    taking pivot columns, in the order the pivots were found, to the column
    order."""
    if elim.rank < n:
        return Fraction(0)
    cols = list(elim.pivots)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    num = math.prod(a for a, _ in elim._leads)
    return Fraction((-1) ** inversions * num, math.prod(b for _, b in elim._leads))


def adjugate_dense(matrix):
    """``(det, adj)`` of a square integer matrix M, with adj * M == M * adj
    == det * I: adj is the adjugate of an invertible M, and the zero matrix
    when M is singular.

    Up to 3 x 3 it is the closed cofactor form, which ``det_dense`` reads its
    value from and which holds over any exact ring; a singular matrix stops
    after the first row's cofactors.  Larger matrices are eliminated: one
    pass over the columns, tagged, finds the determinant as ``det_dense``
    does and stops at the first dependent column, and one integral solve
    per unit vector e_i gives column i of adj = det * M^-1.
    """
    n = len(matrix)
    if n == 0:
        return 1, []
    if n == 1:
        a = matrix[0][0]
        return a, [[1 if a else 0]]
    if n == 2:
        (a, b), (c, d) = matrix
        det = a * d - b * c
        return det, [[d, -b], [-c, a]] if det else [[0, 0], [0, 0]]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * c00 + b * c01 + c * c02
        if not det:
            return det, [[0] * 3 for _ in range(3)]
        return det, [[c00, c * h - b * i, b * f - c * e],
                     [c01, a * i - c * g, c * d - a * f],
                     [c02, b * g - a * h, a * e - b * d]]
    elim = SparseEliminator()
    for k in range(n):
        if not elim.add_row({i: row[k] for i, row in enumerate(matrix) if row[k]}, tag=k):
            return 0, [[0] * n for _ in range(n)]
    det = _det_of(elim, n).numerator
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        # sum(c_k * column k) == den * e_i: column i of M^-1 is c / den
        x, den = elim.solve_integral({i: 1})
        for k, c in x.items():
            adj[k][i] = det * c // den
    return det, adj


def det_dense(matrix):
    """Exact determinant of a square matrix, as a ``Fraction``.

    Up to 3 x 3 it is the closed form of :func:`adjugate_dense`, so the
    linear part of every coordinate map in up to three variables builds no
    eliminator; larger matrices are eliminated row by row."""
    n = len(matrix)
    if n <= 3:
        return Fraction(adjugate_dense(matrix)[0])
    return _det_of(_dense_rows(matrix), n)
