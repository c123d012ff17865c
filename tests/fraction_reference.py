"""Fraction-based eliminations kept as test oracles for the integer core.

Rational Gaussian eliminations for the determinant, the unimodular inverse and
simple-root coordinates.  The package computes these with the integer routines
of `ears.lattice` (Bareiss, and the Smith normal form); the tests compare the
two.
"""

from fractions import Fraction


def det(m):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    prod = Fraction(sign)
    for i in range(n):
        prod *= a[i][i]
    if prod.denominator != 1:
        raise ArithmeticError("non-integral determinant")
    return int(prod)


def inverse_unimodular(m):
    """Inverse by Gauss-Jordan over the rationals; ValueError unless integral."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = tuple(tuple(a[i][n + j] for j in range(n)) for i in range(n))
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def simple_coords(f, root):
    """Coordinates of a root in the simple-root basis of `f`, by Gauss-Jordan."""
    simple = f.simple_roots
    a = [[Fraction(simple[j][i]) for j in range(f.rank)] + [Fraction(root[i])]
         for i in range(f.dim)]
    n, k = len(a), f.rank
    r = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if any(a[i][-1] for i in range(r, n)):
        raise ValueError("vector is outside the root span")
    out = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        out[col] = a[i][-1]
    if any(x.denominator != 1 for x in out):
        raise ValueError("non-integral simple-basis coordinates")
    return tuple(int(x) for x in out)
