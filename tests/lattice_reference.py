"""The dense Smith normal form, kept as the oracle for `ears.lattice`.

`snf` and `_solve_snf` are the dense versions that carried a rows x rows
left transform and a cols x cols right transform as full integer matrices.
`ears.lattice` runs the same elimination with sparse transforms; the tests
check that it returns exactly the same (u, d, v), solutions and certificates.
`_solve_snf` with m == 0 solves over Z, as `IntLattice.coords` did before it
read a Bareiss pass, and is the oracle of its coordinates.  `matmul` is the
matrix product the tests check transforms and inverses with.
`closure_holds` checks the semilattice axiom on a `Semilattice`'s representatives.
"""

from math import gcd
from typing import Sequence

from ears.lattice import IntMatrix, IntVector, json_int_rows, matvec, vec_add, vec_scale, vec_sub


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for arow in a
    )


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def snf(mat: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form of an arbitrary rectangular integer matrix.

    Returns (u, d, v) with u * mat * v = d, u and v unimodular, and d diagonal
    with non-negative entries forming a divisibility chain d1 | d2 | ...
    Total: works for empty and all-zero matrices.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("ragged matrix")
    a = [list(row) for row in json_int_rows(mat, "matrix entry")]
    u = _identity(rows)
    v = _identity(cols)

    def row_sub(i: int, k: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j: int, k: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        # remainder became the smaller pivot candidate
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the trailing block for the divisibility chain
            fix = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fix])]
            u[t] = [x + y for x, y in zip(u[t], u[fix])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


def _solve_snf(
    usv: tuple[IntMatrix, IntMatrix, IntMatrix], b: Sequence[int], m: int
) -> tuple[IntVector | None, IntVector | None]:
    """Back-substitution through a Smith form u A v = d: solve A x = b over Z/m.

    m == 0 means over Z.  Returns (x, None) with x = v y, not reduced mod m, or
    (None, r) where r is a multiple of a row of u.  For m >= 1, r.A = 0 and
    r.b != 0 (mod m); over Z only the failure itself is meaningful.

    Row i of u times A is d_i times a row of v^-1, so a failing row with
    d_i = 0 gives an exact certificate (r.A = 0 over Z).  The first failing
    row is returned when it is exact; otherwise the first exact one after it,
    and the first failing row only when none is exact.
    """
    u, d, v = usv
    c = matvec(u, b)
    y = [0] * len(v)
    first = None
    for i, ci in enumerate(c):
        di = d[i][i] if i < len(y) else 0
        g = gcd(di, m)
        if g == 0:
            if ci:
                return None, u[i]
            continue
        if ci % g:
            # (m//g) * row_i(u) kills A mod m but not b
            cert = vec_scale(m // g, u[i])
            if di == 0 or m == 0:
                return None, cert
            if first is None:
                first = cert
        elif first is not None:
            continue
        elif m == 0:
            y[i] = ci // di
        elif m > g:
            mm = m // g
            y[i] = ((ci // g) * pow(di // g, -1, mm)) % mm
    if first is not None:
        return None, first
    return matvec(v, y), None


def closure_holds(s) -> bool:
    """Check s + 2s' and s - 2s' stay inside, on representatives."""
    for r in s.reps:
        for r2 in s.reps:
            if not s.contains(vec_add(r, vec_scale(2, r2))):
                return False
            if not s.contains(vec_sub(r, vec_scale(2, r2))):
                return False
    return True
