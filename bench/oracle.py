"""Independent computations the benchmark checks lctlab's outputs against.

Nothing here imports lctlab.  Polynomials are plain dicts mapping exponent
tuples to ints or Fractions; truncation "mod m^N" drops every term of total
degree >= N.  The routes are deliberately different from lctlab's: plain
power-by-power composition instead of divided-power Taylor shifts, vertex
enumeration of Howald's dual LP instead of Fourier-Motzkin on the primal,
one-variable brute force plus integer convolution instead of n-variable
residue enumeration, and enumeration over factor pairs instead of the
level-by-level jet recursion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ----------------------------------------------------------------------
# truncated dict polynomials


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(a, b, order=None):
    out = {}
    for ma, ca in a.items():
        da = sum(ma)
        for mb, cb in b.items():
            if order is not None and da + sum(mb) >= order:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def truncate(a, order):
    return {m: c for m, c in a.items() if sum(m) < order}


def derivative(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            d = list(m)
            d[i] -= 1
            out[tuple(d)] = c * m[i]
    return out


def compose(f, images, order):
    """f(images) mod m^order by plain powers of each image."""
    n = len(images)
    one = {(0,) * n: 1}
    powers = [[one] for _ in range(n)]
    total = {}
    for mono, coeff in f.items():
        term = {(0,) * n: coeff}
        for i, e in enumerate(mono):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], images[i], order))
            term = mul(term, powers[i][e], order)
        total = add(total, term)
    return truncate(total, order)


def jacobian_square(f, n):
    """Products d_i f * d_j f for i <= j, in (i, j) order."""
    parts = [derivative(f, i) for i in range(n)]
    return [mul(parts[i], parts[j]) for i in range(n) for j in range(i, n)]


def det(matrix):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return out


def to_text(poly, names=("x", "y", "z", "w")):
    """Render a dict polynomial in lctlab's input grammar."""
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, key=lambda m: (sum(m), m)):
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e]
        c = poly[mono]
        body = "*".join(([] if abs(c) == 1 and factors else [str(abs(c))]) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ----------------------------------------------------------------------
# thresholds: Howald's LP lct(a) = min { sum w : w >= 0, <w, v_j> >= 1 }


def _solve(rows, rhs):
    """Unique solution of a square system over Fractions, or None."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def monomial_lct(exponents):
    """lct of the monomial ideal with these exponent vectors, by enumerating
    the vertices of the dual polyhedron; math.inf for the unit ideal."""
    exps = [tuple(e) for e in exponents]
    if any(sum(e) == 0 for e in exps):
        return math.inf
    n = len(exps[0])
    rows = [(e, 1) for e in exps] + [(tuple(int(i == k) for i in range(n)), 0) for k in range(n)]
    best = None
    for pick in itertools.combinations(rows, n):
        w = _solve([r for r, _ in pick], [b for _, b in pick])
        if w is None or any(v < 0 for v in w):
            continue
        if any(sum(wi * ei for wi, ei in zip(w, e)) < 1 for e in exps):
            continue
        value = sum(w)
        if best is None or value < best:
            best = value
    return best


def minimal_monomials(exps):
    exps = set(exps)
    return sorted(
        e for e in exps if not any(o != e and all(x <= y for x, y in zip(o, e)) for o in exps)
    )


def closure_exponents(exps):
    """Minimal exponents of a + D(a)^2 for a monomial ideal a."""
    n = len(exps[0])
    d = set(exps)
    for e in exps:
        for i in range(n):
            if e[i]:
                d.add(tuple(v - (k == i) for k, v in enumerate(e)))
    d = minimal_monomials(d)
    square = {tuple(x + y for x, y in zip(u, v)) for u in d for v in d}
    return minimal_monomials(set(exps) | square)


def diagonal_regime_ok(n, d, lct_fj2, alpha):
    """The paper's regimes for f = x_1^d + ... + x_n^d: alpha = n/d is at
    least lct(f, J_f^2), which exceeds 1 exactly when d < n and equals n/d
    otherwise."""
    lct_fj2, alpha = Fraction(lct_fj2), Fraction(alpha)
    if alpha != Fraction(n, d) or alpha < lct_fj2:
        return False
    if (lct_fj2 > 1) != (d < n):
        return False
    return d < n or lct_fj2 == alpha


def milnor_orlik(weights):
    """Milnor number of an isolated weighted-homogeneous germ of weighted
    degree 1: prod(1/w_i - 1)."""
    out = Fraction(1)
    for w in weights:
        out *= 1 / Fraction(w) - 1
    return out


# ----------------------------------------------------------------------
# residue counts


def one_var_histogram(coeff, power, p, m):
    """Counts of coeff * x^power mod p^m over x in Z/p^m, by brute force."""
    mod = p**m
    counts = [0] * mod
    for x in range(mod):
        counts[coeff * pow(x, power, mod) % mod] += 1
    return counts


def convolve(h1, h2):
    """Cyclic integer convolution of two residue histograms."""
    mod = len(h1)
    out = [0] * mod
    for r1, c1 in enumerate(h1):
        if c1:
            for r2, c2 in enumerate(h2):
                if c2:
                    out[(r1 + r2) % mod] += c1 * c2
    return out


def histogram_sum(counts):
    """Normalised exponential sum of a histogram over its own point total."""
    mod = len(counts)
    total = sum(counts)
    re = math.fsum(c * math.cos(2 * math.pi * r / mod) for r, c in enumerate(counts) if c)
    im = math.fsum(c * math.sin(2 * math.pi * r / mod) for r, c in enumerate(counts) if c)
    return complex(re / total, im / total)


def diagonal_histogram(coeffs, power, p, m):
    """Histogram of sum(c_i x_i^power) mod p^m as a convolution of
    one-variable histograms."""
    out = None
    for c in coeffs:
        h = one_var_histogram(c, power, p, m)
        out = h if out is None else convolve(out, h)
    return out


# ----------------------------------------------------------------------
# jet counts


def _jets(p, m):
    return list(itertools.product(range(p), repeat=m + 1))


def _series_mul(a, b, length, p):
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j in range(length - i):
                out[i + j] = (out[i + j] + x * b[j]) % p
    return out


def _product_counts(p, m, e, factors):
    """For jets of the given number of coordinates, count each vector of the
    first e coefficients of the product of the coordinates (each coordinate
    raised to its power in ``factors``)."""
    counts = {}
    jets = _jets(p, m)
    for combo in itertools.product(jets, repeat=len(factors)):
        val = [1] + [0] * (e - 1)
        for jet, power in zip(combo, factors):
            for _ in range(power):
                val = _series_mul(val, list(jet), e, p)
        key = tuple(val)
        counts[key] = counts.get(key, 0) + 1
    return counts


def binomial_jet_count(a, fa, b, fb, p, m, e):
    """Number of order-m jets with ord_t(a*u + b*v) >= e, where u is the
    product of one group of coordinates (powers ``fa``) and v of a disjoint
    group (powers ``fb``); enumerated over the two groups separately and
    joined on the coefficient vector."""
    cu = _product_counts(p, m, e, fa)
    cv = _product_counts(p, m, e, fb)
    total = 0
    for vec, count in cu.items():
        need = tuple((-a * x) * pow(b, -1, p) % p for x in vec)
        total += count * cv.get(need, 0)
    return total
