"""The elimination kernel against the Fraction kernel it replaced and against
dense Gauss-Jordan and Leibniz oracles."""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from lctlab import jacobian
from lctlab.equiv import CoordinateMap
from lctlab.jacobian import (
    IdealGens,
    MembershipWitness,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
    quadratic_form_matrix,
    quadratic_rank,
)
from lctlab.linalg import (
    SparseEliminator,
    _integral,
    adjugate_dense,
    det_dense,
    rank_dense,
    solve_dense,
)
from lctlab.polyring import monomials_below, parse_poly, partial_derivative
from oracles import FirstHitEliminator, invert


def _bitlen(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    return abs(c).bit_length()


class FractionEliminator:
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


def fraction_det(matrix):
    """The determinant as the Fraction kernel's ``det_dense`` computed it."""
    n = len(matrix)
    elim = FractionEliminator()
    for row in matrix:
        elim.add_row({j: v for j, v in enumerate(row) if v})
    if elim.rank < n:
        return Fraction(0)
    cols = list(elim.pivots)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return math.prod(elim.leads, start=Fraction((-1) ** inversions))


def _exact(value) -> bool:
    return type(value) in (int, Fraction)


def gauss_jordan(rows, rhs):
    """Dense Gauss-Jordan with partial pivoting on the smallest bit length.

    Returns (x with free variables 0, or None if inconsistent; rank).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n):
        best = None
        for i in range(r, m):
            if a[i][col]:
                if best is None or _bitlen(a[i][col]) < _bitlen(a[best][col]):
                    best = i
        if best is None:
            continue
        a[r], a[best] = a[best], a[r]
        pv = a[r][col]
        a[r] = [v / pv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    if any(a[i][n] for i in range(r, m)):
        return None, r
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = a[i][n]
    return x, r


def leibniz_det(matrix):
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def random_system(rng, m, n):
    """A rational m x n system, made singular or inconsistent about half the time."""

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        # one row a combination of two others: rank drops
        i, j, k = (rng.randrange(m) for _ in range(3))
        c = entry()
        rows[k] = [u + c * v for u, v in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        # rhs in the column span: consistent
        x = [entry() for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [entry() for _ in range(m)]
    return rows, rhs


def test_solve_dense_agrees_with_gauss_jordan():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        rows, rhs = random_system(rng, rng.randint(1, 5), rng.randint(1, 5))
        want, _ = gauss_jordan(rows, rhs)
        got = solve_dense(rows, rhs)
        outcomes.add(got is None)
        if want is None:
            assert got is None, (rows, rhs)
            continue
        assert got is not None, (rows, rhs)
        assert all(isinstance(v, Fraction) for v in got)
        assert [sum(a * b for a, b in zip(row, got)) for row in rows] == rhs
        assert got == want  # same basic columns, free variables at 0
    assert outcomes == {True, False}


def test_rank_and_det_agree_with_oracles():
    rng = random.Random(37)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        matrix, _ = random_system(rng, n, n)
        det = det_dense(matrix)
        assert isinstance(det, Fraction)
        assert det == leibniz_det(matrix) == fraction_det(matrix), matrix
        assert rank_dense(matrix) == gauss_jordan(matrix, [0] * n)[1], matrix
        singular += det == 0
    assert 0 < singular < 300


def test_det_sign_follows_the_pivot_permutation():
    # pivots land off the diagonal: smallest bit length wins, not position
    assert det_dense([[7, 1], [1, 0]]) == -1
    assert det_dense([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det_dense([]) == 1


def _det_by_elimination(matrix):
    """det_dense of the block diagonal (matrix, I_4): the same determinant,
    at a size where det_dense eliminates."""
    n = len(matrix)
    padded = [list(row) + [0] * 4 for row in matrix]
    padded += [[0] * n + [int(i == j) for j in range(4)] for i in range(4)]
    return det_dense(padded)


def test_closed_form_determinants_match_the_eliminator():
    rng = random.Random(4243)
    seen = {"int": 0, "Fraction": 0, "singular": 0}
    for k in range(240):
        n, kind = k % 4, ("int", "Fraction", "singular")[k // 4 % 3]
        den = (1,) if kind == "int" else (1, 2, 3, 7, 2**70 + 1)
        matrix = [[Fraction(rng.randint(-9, 9), rng.choice(den)) for _ in range(n)] for _ in range(n)]
        if kind == "int":
            matrix = [[int(v) for v in row] for row in matrix]
        if kind == "singular" and n:
            # the last row a combination of the others (zero for n = 1)
            cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n - 1)]
            matrix[-1] = [sum((c * row[j] for c, row in zip(cs, matrix)), Fraction(0)) for j in range(n)]
        det = det_dense(matrix)
        assert type(det) is Fraction
        assert det == _det_by_elimination(matrix) == leibniz_det(matrix) == fraction_det(matrix), matrix
        seen[kind] += n > 0 and (kind != "singular" or det == 0)
    assert min(seen.values()) >= 50, seen
    assert det_dense([]) == 1 and type(det_dense([])) is Fraction


def leibniz_adjugate(matrix):
    """adj[i][j] = (-1)^(i+j) times the minor of M without row j and column i."""
    n = len(matrix)
    return [[(-1) ** (i + j) * leibniz_det([[row[k] for k in range(n) if k != i]
                                            for r, row in enumerate(matrix) if r != j])
             for j in range(n)] for i in range(n)]


def test_adjugate_dense_on_seeded_integer_matrices():
    rng = random.Random(2719)
    seen = {}
    for k in range(360):
        n, singular = k % 6, k // 6 % 3 == 2
        matrix = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2**70, 2**70)))
                   for _ in range(n)] for _ in range(n)]
        if singular and n:
            # the last row an integer combination of the others (zero for n = 1)
            cs = [rng.randint(-3, 3) for _ in range(n - 1)]
            matrix[-1] = [sum(c * row[j] for c, row in zip(cs, matrix)) for j in range(n)]
        det, adj = adjugate_dense(matrix)
        assert type(det) is int and all(type(v) is int for row in adj for v in row)
        assert det == det_dense(matrix) == leibniz_det(matrix), matrix
        identity = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert [[sum(adj[i][k] * matrix[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == identity, matrix
        assert [[sum(matrix[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == identity, matrix
        if det:
            assert adj == leibniz_adjugate(matrix), matrix
        else:
            assert adj == [[0] * n for _ in range(n)], matrix
        seen[n, bool(det)] = seen.get((n, bool(det)), 0) + 1
    for n in range(1, 6):
        assert seen[n, True] >= 10 and seen[n, False] >= 10, seen
    assert adjugate_dense([]) == (1, []) and det_dense([]) == 1


@pytest.mark.parametrize(
    "weights",
    [(1,), (3,), (1, 1), (2, 3), (1, 1, 1), (1, 2, 5), (4, 1, 1), (1, 1, 1, 1), (2, 1, 3, 1)],
)
def test_monomials_below_matches_brute_force(weights):
    for bound in range(-1, 9):
        got = list(monomials_below(weights, bound))
        want = [
            a
            for a in product(range(max(bound, 0)), repeat=len(weights))
            if sum(w * e for w, e in zip(weights, a)) < bound
        ]
        assert len(got) == len(set(got))
        assert set(got) == set(want), (weights, bound)
        assert got == sorted(got, key=lambda a: (sum(a), tuple(-e for e in reversed(a))))


def test_monomials_below_rejects_bad_weights():
    with pytest.raises(ValueError):
        list(monomials_below((1, 0), 3))
    with pytest.raises(ValueError):
        list(monomials_below((), 3))


# ----------------------------------------------------------------------
# the integer kernel against the Fraction kernel


def _entry(rng, big=False):
    """An int or a Fraction, zero about a quarter of the time."""
    if rng.random() < 0.25:
        return 0
    num = rng.randint(-(2**80), 2**80) if big and rng.random() < 0.5 else rng.randint(-9, 9)
    if rng.random() < 0.5:
        return num
    return Fraction(num, rng.choice((1, 2, 3, 4, 7, 2**70 + 1 if big else 5)))


def random_tagged_system(rng, big=False):
    """Sparse rows over monomial-like keys, with repeated rows, multiples and
    combinations of earlier rows (rank drops), and a target that is in their
    span about half the time."""
    keys = rng.sample([(i, j) for i in range(4) for j in range(4)], rng.randint(1, 8))
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random() if rows else 1.0
        if kind < 0.15:
            row = dict(rng.choice(rows))
        elif kind < 0.3:
            c = _entry(rng) or 3
            row = {k: c * v for k, v in rng.choice(rows).items()}
        elif kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            c = _entry(rng, big)
            row = {k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)}
        else:
            row = {k: _entry(rng, big) for k in keys if rng.random() < 0.7}
        rows.append({k: v for k, v in row.items() if v})
    if rng.random() < 0.5:
        coeffs = [_entry(rng, big) for _ in rows]
        target = {}
        for c, row in zip(coeffs, rows):
            for k, v in row.items():
                target[k] = target.get(k, 0) + c * v
    else:
        target = {k: _entry(rng, big) for k in keys}
    return rows, {k: v for k, v in target.items() if v}


def _leads_are_leading_minors(elim, rows, raised):
    """prod(leads[:k]) is the minor of the first k rows that raised the rank
    on the first k pivot columns, whatever the pivot columns are."""
    cols = list(elim.pivots)
    kept = [rows[i] for i in raised]
    for k in range(1, len(cols) + 1):
        minor = [[row.get(c, 0) for c in cols[:k]] for row in kept[:k]]
        if math.prod(elim.leads[:k]) != fraction_det(minor):
            return False
    return True


@pytest.mark.parametrize("big", [False, True])
def test_integer_kernel_agrees_with_fraction_kernel(big):
    rng = random.Random(43 + big)
    outcomes, pinned = set(), 0
    for _ in range(300):
        rows, target = random_tagged_system(rng, big)
        new, old = SparseEliminator(), FractionEliminator()
        raised = []
        for k, row in enumerate(rows):
            got = new.add_row(row, tag=k)
            assert got == old.add_row(row, tag=k), rows
            if got:
                raised.append(k)
        assert new.rank == old.rank
        want = old.solve(target)
        got = new.solve(target)
        outcomes.add(want is None)
        assert got == want, (rows, target)
        if got is not None:
            assert all(type(c) is Fraction for c in got.values())
        # the rows are kept fraction-free and primitive, with a positive lead
        for col, row in new.pivots.items():
            assert all(type(v) is int for v in row.values())
            assert math.gcd(*row.values()) == 1 and row[col] > 0
        assert all(type(c) is Fraction for c in new.leads)
        # leads depend on the pivot columns: equal to the Fraction kernel's
        # where it took the same ones, leading minors in every case
        if list(new.pivots) == list(old.pivots):
            assert new.leads == old.leads
            pinned += 1
        assert _leads_are_leading_minors(new, rows, raised), rows
        square = [[row.get(c, 0) for c in sorted(set().union(*rows))] for row in rows]
        if square and len(square) == len(square[0]):
            assert det_dense(square) == fraction_det(square)
    assert outcomes == {True, False}
    assert 0 < pinned < 300


@pytest.mark.parametrize("big", [False, True])
def test_every_pivot_row_leads_with_its_smallest_column_for_good(big):
    # milnor_number counts pivots by degree below each order, which needs
    # every stored row's key to be its smallest column and the row never to
    # change after it is stored
    rng = random.Random(43 + big)
    for _ in range(300):
        rows, _ = random_tagged_system(rng, big)
        elim = SparseEliminator()
        stored = {}
        for k, row in enumerate(rows):
            elim.add_row(row, tag=k if k % 2 else None)
            for col, piv in elim.pivots.items():
                assert col == min(piv), rows
                assert stored.setdefault(col, dict(piv)) == piv, rows


def _membership_corpus():
    """Truncated memberships of the Jacobian-ideal tests, plus germs with
    rational coefficients."""
    P = parse_poly
    cases = [
        (P("x^4", 1), IdealGens(1, [P("x^2", 1)]), 8, 0),
        (P("x", 1), IdealGens(1, [P("x^2", 1)]), 4, 0),
        (P("x^2*y^2", 2), ideal_power(jacobian_ideal(P("x^3+y^3", 2)), 2), 10, 0),
        (P("x^3", 1), IdealGens(1, [P("x^2", 1)]), 8, 1),
        (P("x^2", 1), IdealGens(1, [P("x^2", 1)]), 8, 1),
    ]
    f = P("x^3 + y^3 + x^2*y", 2)
    fg = f + P("x^2*y^2", 2)
    for a, b in ((fg, f), (f, fg)):
        for i in (1, 2):
            cases.append((partial_derivative(a, i), jacobian_ideal(b), 6, 0))
    for text, n, cofactors, order in [
        ("1/2*x^3 + 2/3*y^3 + x^2*y", 2, ("1/3 + x", "y", "2/5"), 9),
        ("x^3 + y^3 + z^3 + 7/3*x*y*z", 3, ("z", "0", "1/7*x^2", "0", "0", "5"), 7),
        ("x^3 - 5*x*y^2 + y^4", 2, ("x*y", "-3/2", "y^2"), 8),
    ]:
        jf2 = ideal_power(jacobian_ideal(P(text, n)), 2)
        g = sum((P(c, n) * gen for c, gen in zip(cofactors, jf2.gens)), P("0", n))
        cases.append((g, jf2, order, 0))
        cases.append((g + P("x^3", n), jf2, order, 0))  # a cube is never in J_f^2
    return cases


@pytest.mark.parametrize("case", range(len(_membership_corpus())))
def test_membership_witnesses_agree_with_fraction_kernel(monkeypatch, case):
    g, a, order, min_degree = _membership_corpus()[case]
    got = membership_truncated(g, a, order, min_degree)
    monkeypatch.setattr(jacobian, "SparseEliminator", FractionEliminator)
    want = membership_truncated(g, a, order, min_degree)
    assert type(got) is type(want)
    if isinstance(want, MembershipWitness):
        assert [c.poly.terms for c in got.coefficients] == [c.poly.terms for c in want.coefficients]
        for c in got.coefficients:
            assert all(_exact(v) for v in c.poly.terms.values())


def test_membership_corpus_has_members_and_non_members():
    kinds = {type(membership_truncated(*c)) for c in _membership_corpus()}
    assert MembershipWitness in kinds and len(kinds) == 2


# ----------------------------------------------------------------------
# big integers, mixed denominators, rescaled targets


def test_entries_above_two_to_the_64():
    big = 2**64 + 13
    rows = [[big, 3, -(2**90)], [5, big * 7, 1], [2**65, 2**66 + 1, big]]
    rhs = [1, -(2**70), Fraction(1, big)]
    x = solve_dense(rows, rhs)
    assert all(type(v) is Fraction for v in x)
    assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs
    assert x == gauss_jordan(rows, rhs)[0]
    assert det_dense(rows) == leibniz_det(rows) == fraction_det(rows)
    assert type(det_dense(rows)) is Fraction


def test_mixed_denominators_from_quadratic_forms():
    f = parse_poly("x^2 + 3*x*y - y^2 + 5*y*z + 1/3*z^2 + x*z", 3)
    s = quadratic_form_matrix(f)
    assert {v.denominator for row in s for v in row} == {1, 2, 3}
    det = det_dense(s)
    assert type(det) is Fraction and det == leibniz_det(s) == fraction_det(s)
    assert rank_dense(s) == quadratic_rank(f) == 3
    degenerate = parse_poly("x^2 + x*y + 1/4*y^2", 2)  # (x + y/2)^2
    assert quadratic_rank(degenerate) == 1
    assert det_dense(quadratic_form_matrix(degenerate)) == 0


def test_mixed_denominators_from_linear_parts():
    matrix = [
        [Fraction(1, 2), Fraction(1, 3), 0],
        [Fraction(2, 7), 5, 1],
        [0, Fraction(-3, 4), Fraction(5, 6)],
    ]
    cmap = CoordinateMap.linear(matrix, 6)
    assert cmap.linear_part() == matrix
    det = cmap.jacobian_at_zero()
    assert type(det) is Fraction and det == leibniz_det(matrix) == fraction_det(matrix)
    inv = invert(cmap).linear_part()
    assert all(_exact(v) for row in inv for v in row)
    for i in range(3):
        for j in range(3):
            assert sum(inv[i][k] * matrix[k][j] for k in range(3)) == (i == j)


def test_target_that_needs_rescaling():
    elim = SparseEliminator()
    assert elim.add_row({"a": 2, "b": 3}, tag="r")
    assert elim.add_row({"b": 4, "c": 6}, tag="s")
    target = {"a": Fraction(1, 3), "b": Fraction(5, 6), "c": Fraction(1, 2)}
    x = elim.solve(target)
    assert x == {"r": Fraction(1, 6), "s": Fraction(1, 12)}
    assert all(type(v) is Fraction for v in x.values())
    assert elim.solve({"a": Fraction(1, 3), "b": 1}) is None


# ----------------------------------------------------------------------
# the integer backward sweep against the Fraction sweep it replaced


def fraction_sweep(elim, target):
    """``SparseEliminator.solve`` as it was before the integer sweep: the same
    reduction, then one ``Fraction`` per elimination step while unwinding."""
    target, den = _integral(target)
    steps = []
    red, scale = elim._reduce(target, steps)
    if red:
        return None
    # scale * den * target is the sum of multiple * pivot row over the steps
    weight = {}
    for col, a in steps:
        weight[col] = weight.get(col, 0) + a
    scale *= den
    weight = {col: Fraction(a, scale) for col, a in weight.items()}
    # pivot row k is (scale_k * row_k - sum of its steps) / content_k, and
    # its steps only name earlier pivots, so one backward sweep unwinds them
    out = {}
    for col in reversed(elim.pivots):
        w = weight.get(col)
        if not w:
            continue
        tag, made, s, content = elim._made[col]
        if content != 1:
            w /= content
        w_row = w * s if s != 1 else w
        out[tag] = out[tag] + w_row if tag in out else w_row
        for hit, a in made:
            d = w * a
            weight[hit] = weight[hit] - d if hit in weight else -d
    return {tag: c for tag, c in out.items() if c}


@pytest.mark.parametrize("big", [False, True])
def test_integer_sweep_agrees_with_the_fraction_sweep(big):
    rng = random.Random(71 + big)
    seen = set()
    for _ in range(300):
        rows, target = random_tagged_system(rng, big)
        elim = SparseEliminator()
        for k, row in enumerate(rows):
            elim.add_row(row, tag=k)
        shape = "square" if len(rows) == len(set().union(*rows)) else "rectangular"
        for t in (target, {}):
            want = fraction_sweep(elim, t)
            got = elim.solve_integral(t)
            assert elim.solve(t) == want, (rows, t)
            if want is None:
                assert got is None
                seen.add(f"inconsistent {shape}")
                continue
            out, den = got
            assert type(den) is int and den > 0
            assert all(type(c) is int and c for c in out.values())
            # den is the least common denominator of the coefficients
            assert math.gcd(den, *out.values()) == 1
            assert {tag: Fraction(c, den) for tag, c in out.items()} == want
            seen.add(f"{'nonzero' if t else 'zero'} target {shape}")
            if any(content < 0 for _, _, _, content in elim._made.values()):
                seen.add("negative content")
            if any(lead < 0 for lead in elim.leads):
                seen.add("negative lead")
    assert seen == {
        f"{kind} {shape}"
        for kind in ("inconsistent", "nonzero target", "zero target")
        for shape in ("square", "rectangular")
    } | {"negative content", "negative lead"}


def _membership_rows_oracle(a, order, min_degree):
    """The tagged rows of the membership loop that ``_truncated_multiples``
    replaced, in the order it added them."""
    column = {m: k for k, m in enumerate(monomials_below((1,) * a.nvars, order))}
    rows = []
    for gi, gen in enumerate(a.gens):
        if gen.is_zero():
            continue
        for mono in monomials_below((1,) * a.nvars, order - gen.multiplicity()):
            if sum(mono) < min_degree:
                continue
            shifted = {}
            for m, c in gen.terms.items():
                s = tuple(map(int.__add__, m, mono))
                if sum(s) < order:
                    shifted[column[s]] = c
            rows.append(((gi, mono), shifted))
    return column, rows


@pytest.mark.parametrize("case", range(len(_membership_corpus())))
def test_membership_rows_and_witnesses_match_the_replaced_loop(case):
    g, a, order, min_degree = _membership_corpus()[case]
    column, rows = jacobian._truncated_multiples(a.nvars, a.gens, order, min_degree)
    want_column, want_rows = _membership_rows_oracle(a, order, min_degree)
    got_rows = [((gi, mono), row) for gi, mono, row in rows]
    assert column == want_column
    assert [(tag, list(row.items())) for tag, row in got_rows] == [
        (tag, list(row.items())) for tag, row in want_rows
    ]
    # the witness the replaced loop solved for
    elim = SparseEliminator()
    for tag, row in want_rows:
        elim.add_row(row, tag=tag)
    sol = elim.solve({want_column[m]: c for m, c in g.truncate(order).terms.items()})
    got = membership_truncated(g, a, order, min_degree)
    if sol is None:
        assert not isinstance(got, MembershipWitness)
        return
    from lctlab.polyring import Polynomial

    per_gen = [{} for _ in a.gens]
    for (gi, mono), value in sol.items():
        per_gen[gi][mono] = value
    assert [list(c.poly.terms.items()) for c in got.coefficients] == [
        list(Polynomial(a.nvars, t).terms.items()) for t in per_gen
    ]


def test_the_caller_s_rows_are_neither_written_nor_kept():
    # rows of nonzero ints pass into the eliminator uncopied: one that meets
    # no pivot, one reduced with multiple 1, one rescaled, one with a zero
    # entry, one with a Fraction, one stored primitive and one negated
    rng = random.Random(1423)
    fixed = [{0: 1, 1: 2}, {7: 1, 8: 3}, {0: 3, 2: 1}, {0: 2, 1: 1, 3: 5}, {4: 0, 5: 2, 6: 4},
             {1: Fraction(1, 2), 9: 1}, {9: -1, 10: 2}]
    cases = [fixed] + [[{c: rng.choice((-3, -2, -1, 0, 1, 2, 3, Fraction(1, 3)))
                        for c in rng.sample(range(6), rng.randint(1, 4))} for _ in range(rng.randint(2, 7))]
                       for _ in range(40)]
    for rows in cases:
        elim, copies = SparseEliminator(), SparseEliminator()
        for k, row in enumerate(rows):
            before = list(row.items())
            assert elim.add_row(row, tag=k) == copies.add_row(dict(row), tag=k)
            assert list(row.items()) == before
        targets = [dict(rows[0]), {c: v + 1 for c, v in rows[-1].items()}, {0: 1, 11: 1}]
        for target in targets:
            before = list(target.items())
            assert elim.solve_integral(target) == copies.solve_integral(dict(target))
            assert list(target.items()) == before
        pivots = {col: dict(piv) for col, piv in elim.pivots.items()}
        assert pivots == copies.pivots
        for row in rows + targets:
            for c in list(row):
                row[c] = 97
            row[12] = 5
        assert elim.pivots == pivots


# ----------------------------------------------------------------------
# pivot columns cleared in increasing order, against the first-hit reduction


def _assert_same_elimination(new, old, targets):
    assert list(new.pivots) == list(old.pivots) and new.pivots == old.pivots
    assert new.leads == old.leads and new.rank == old.rank
    for t in targets:
        assert new.solve(t) == old.solve(t), t
        assert new.solve_integral(t) == old.solve_integral(t), t


@pytest.mark.parametrize("big", [False, True])
def test_heap_reduction_agrees_with_the_first_hit_reduction(big):
    rng = random.Random(3401 + big)
    seen = set()
    for _ in range(300):
        rows, target = random_tagged_system(rng, big)
        new, old = SparseEliminator(), FirstHitEliminator()
        for k, row in enumerate(rows):
            assert new.add_row(row, tag=k) == old.add_row(row, tag=k), rows
        _assert_same_elimination(new, old, [target, {}, rows[0]])
        if any(new._made[col][1] != old._made[col][1] for col in new.pivots):
            seen.add("different steps")
        seen.add("inconsistent" if new.solve(target) is None else "solved")
    assert seen == {"different steps", "inconsistent", "solved"}


@pytest.mark.parametrize("case", range(len(_membership_corpus())))
def test_membership_systems_agree_with_the_first_hit_reduction(monkeypatch, case):
    g, a, order, min_degree = _membership_corpus()[case]
    new, old = SparseEliminator(), FirstHitEliminator()
    column, rows = jacobian._truncated_multiples(a.nvars, a.gens, order, min_degree)
    for gi, mono, row in rows:
        assert new.add_row(row, tag=(gi, mono)) == old.add_row(row, tag=(gi, mono))
    target = {column[m]: c for m, c in g.truncate(order).terms.items()}
    _assert_same_elimination(new, old, [target, {}])
    got = membership_truncated(g, a, order, min_degree)
    monkeypatch.setattr(jacobian, "SparseEliminator", FirstHitEliminator)
    want = membership_truncated(g, a, order, min_degree)
    assert type(got) is type(want)
    if isinstance(want, MembershipWitness):
        assert [list(c.poly.terms.items()) for c in got.coefficients] == [
            list(c.poly.terms.items()) for c in want.coefficients
        ]


@pytest.mark.parametrize("big", [False, True])
def test_a_reduction_clears_each_pivot_column_once_in_increasing_order(monkeypatch, big):
    # each step names a distinct column, in increasing order, whether the
    # column was in the row from the start or brought in by an earlier step;
    # a queued column that a step cancels is skipped, also when a later step
    # brings it in again and it is queued twice
    import lctlab.linalg as linalg

    seen = set()
    push = linalg.heappush

    def spy(heap, col):
        if col in heap:
            seen.add("queued twice")
        push(heap, col)

    monkeypatch.setattr(linalg, "heappush", spy)
    rng = random.Random(3403 + big)
    for _ in range(300):
        rows, target = random_tagged_system(rng, big)
        elim = SparseEliminator()
        for k, row in enumerate(rows):
            elim.add_row(row, tag=k)
        for t in rows + [target]:
            ints, _ = _integral(t)
            steps = []
            elim._reduce(ints, steps)
            cols = [col for col, _ in steps]
            assert cols == sorted(set(cols)), (rows, t)
            start = {col for col in ints if col in elim.pivots}
            if start - set(cols):
                seen.add("cancelled")
            if set(cols) - start:
                seen.add("brought in")
        for _, made, _, _ in elim._made.values():
            cols = [col for col, _ in made]
            assert cols == sorted(set(cols)), rows
    assert seen == {"cancelled", "brought in", "queued twice"}
