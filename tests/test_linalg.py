"""The elimination kernel against dense Gauss-Jordan and Leibniz oracles."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from lctlab.linalg import det_dense, rank_dense, solve_dense
from lctlab.polyring import monomials_below


def _bitlen(c):
    return c.numerator.bit_length() + c.denominator.bit_length()


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
        assert det == leibniz_det(matrix), matrix
        assert rank_dense(matrix) == gauss_jordan(matrix, [0] * n)[1], matrix
        singular += det == 0
    assert 0 < singular < 300


def test_det_sign_follows_the_pivot_permutation():
    # pivots land off the diagonal: smallest bit length wins, not position
    assert det_dense([[7, 1], [1, 0]]) == -1
    assert det_dense([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det_dense([]) == 1


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
