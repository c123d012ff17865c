"""The exact integer linear-algebra core, integer lattices and semilattices.

Every elimination in the package happens here: Smith normal form, Bareiss
determinant, unimodular inverse, and solving over Z and Z/m.  All of it works
over plain Python integers, so there is no precision limit and no floating
point anywhere.  Vectors are tuples of ints, matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def _as_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def json_int(value, field: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def json_int_rows(rows, field: str) -> IntMatrix:
    """A JSON list of lists of integers, each entry checked by `json_int`."""
    return tuple(tuple(json_int(x, field) for x in row) for row in rows)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matvec(m: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    if m and len(m[0]) != len(v):
        raise ValueError("matrix/vector dimension mismatch")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for arow in a
    )


def vec_add(u: Sequence[int], v: Sequence[int]) -> IntVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: int, v: Sequence[int]) -> IntVector:
    return tuple(c * x for x in v)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss: every division is exact)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [[int(x) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


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
    a = [list(map(int, row)) for row in mat]
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
    return _as_matrix(u), _as_matrix(a), _as_matrix(v)


@dataclass(frozen=True)
class ModSolveResult:
    """Outcome of solving A x = b (mod m).

    Exactly one of `solution` and `certificate` is set.  The certificate is an
    integer row combination r with r.A = 0 (mod m) but r.b != 0 (mod m), so an
    UNSAT verdict can be re-checked without trusting the solver.
    """

    modulus: int
    solution: IntVector | None = None
    certificate: IntVector | None = None

    @property
    def sat(self) -> bool:
        return self.solution is not None


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


def solve_mod(
    a: Sequence[Sequence[int]], b: Sequence[int], m: int
) -> ModSolveResult:
    """Solve A x = b over Z/m, or produce an UNSAT certificate."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if len(b) != len(a):
        raise ValueError("right-hand side length does not match row count")
    x, cert = _solve_snf(snf(a), b, m)
    if x is None:
        return ModSolveResult(m, certificate=cert)
    x = tuple(val % m for val in x)
    if any((s - t) % m for s, t in zip(matvec(a, x), b)):
        raise AssertionError("solve_mod produced a non-solution")
    return ModSolveResult(m, solution=x)


def inverse_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Integer inverse of a square matrix of determinant +-1.

    From u m v = I the inverse is v u; any other Smith form raises ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse needs a square matrix")
    u, d, v = snf(m)
    if any(d[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return matmul(v, u)


@dataclass(frozen=True)
class IntLattice:
    """Full-rank lattice in Z^n, given by a square basis matrix whose columns generate it."""

    basis: IntMatrix

    def __post_init__(self) -> None:
        n = len(self.basis)
        object.__setattr__(self, "basis", _as_matrix(self.basis))
        if any(len(row) != n for row in self.basis):
            raise ValueError("lattice basis must be square")
        if n and det(self.basis) == 0:
            raise ValueError("lattice basis must have nonzero determinant")

    @classmethod
    def standard(cls, dim: int) -> "IntLattice":
        return cls(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _is_standard(self) -> bool:
        return self.basis == tuple(
            tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)
        )

    @cached_property
    def _snf(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        return snf(self.basis)

    def coords(self, v: Sequence[int]) -> IntVector | None:
        """Coordinates of v in this basis, or None when v is not a lattice point."""
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        if self._is_standard:
            return tuple(int(x) for x in v)
        return _solve_snf(self._snf, v, 0)[0]

    def contains(self, v: Sequence[int]) -> bool:
        return self.coords(v) is not None

    def from_coords(self, x: Sequence[int]) -> IntVector:
        """Ambient vector of the lattice point with the given basis coordinates."""
        if len(x) != self.dim:
            raise ValueError("coordinate dimension mismatch")
        return tuple(
            sum(self.basis[i][j] * x[j] for j in range(self.dim))
            for i in range(self.dim)
        )

    def index_of_sublattice(self, sub: "IntLattice") -> int:
        """Group index [self : sub] for a full-rank sublattice."""
        cols = []
        for j in range(self.dim):
            col = tuple(sub.basis[i][j] for i in range(self.dim))
            c = self.coords(col)
            if c is None:
                raise ValueError("not a sublattice")
            cols.append(c)
        m = tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))
        return abs(det(m)) if self.dim else 1

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": [list(row) for row in self.basis]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntLattice":
        basis = json_int_rows(
            obj.get("basis", obj.get("lattice_basis", [])), "basis entry"
        )
        if len(basis) != json_int(obj["dim"], "dim"):
            raise ValueError("lattice dim does not match basis")
        return cls(basis)


@dataclass(frozen=True)
class Semilattice:
    """Union of cosets of 2L in a lattice L, described by coset representatives.

    The first representative must be 0, representatives must be pairwise
    distinct mod 2L, and together with 2L they must span L.  Membership and
    coset classification never enumerate points: a vector is reduced to its
    parity pattern in basis coordinates, which labels its coset of 2L.
    """

    lattice: IntLattice
    reps: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "reps", tuple(tuple(int(x) for x in r) for r in self.reps)
        )
        if not self.reps:
            raise ValueError("need at least the trivial representative 0")
        if any(x != 0 for x in self.reps[0]):
            raise ValueError("first representative must be 0")
        keys = []
        for r in self.reps:
            c = self.lattice.coords(r)
            if c is None:
                raise ValueError(f"representative {r} lies outside the lattice")
            keys.append(tuple(x % 2 for x in c))
        if len(set(keys)) != len(keys):
            raise ValueError("representatives are not distinct mod 2L")
        n = self.dim
        if n:
            cols = [self.lattice.coords(r) for r in self.reps]
            cols += [[2 * int(i == j) for i in range(n)] for j in range(n)]
            m = tuple(tuple(col[i] for col in cols) for i in range(n))
            _, d, _ = snf(m)
            if any(d[i][i] != 1 for i in range(n)):
                raise ValueError("representatives do not span the lattice mod 2L")

    @classmethod
    def full(cls, lattice: IntLattice) -> "Semilattice":
        """The lattice itself, listed as all 2^dim cosets of 2L (0 first)."""
        reps = tuple(
            lattice.from_coords(key)
            for key in itertools.product((0, 1), repeat=lattice.dim)
        )
        return cls(lattice, reps)

    @classmethod
    def standard(cls, dim: int) -> "Semilattice":
        return cls.full(IntLattice.standard(dim))

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def index(self) -> int:
        """Number of non-trivial cosets."""
        return len(self.reps) - 1

    @property
    def coset_count(self) -> int:
        return len(self.reps)

    @cached_property
    def class_index(self) -> dict[IntVector, int]:
        """Representative index by class key (parity pattern of basis coordinates)."""
        table = {}
        for i, r in enumerate(self.reps):
            c = self.lattice.coords(r)
            table[tuple(x % 2 for x in c)] = i
        return table

    @cached_property
    def class_keys(self) -> frozenset[IntVector]:
        return frozenset(self.class_index)

    def key(self, v: Sequence[int]) -> IntVector | None:
        """Parity pattern of v in basis coordinates; None when v is outside L."""
        c = self.lattice.coords(v)
        if c is None:
            return None
        return tuple(x % 2 for x in c)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.dim:
            return False
        k = self.key(v)
        return k is not None and k in self.class_index

    def closure_holds(self) -> bool:
        """Check s + 2s' and s - 2s' stay inside, on representatives."""
        for r in self.reps:
            for r2 in self.reps:
                if not self.contains(vec_add(r, vec_scale(2, r2))):
                    return False
                if not self.contains(vec_sub(r, vec_scale(2, r2))):
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "lattice_basis": [list(row) for row in self.lattice.basis],
            "reps": [list(r) for r in self.reps],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Semilattice":
        lat = IntLattice(json_int_rows(obj["lattice_basis"], "basis entry"))
        if lat.dim != json_int(obj["dim"], "dim"):
            raise ValueError("semilattice dim does not match basis")
        return cls(lat, json_int_rows(obj["reps"], "rep entry"))


def sum_semilattices(s1: Semilattice, s2: Semilattice) -> frozenset[IntVector]:
    """Coset classes (parity keys in the first ambient) of the pointwise sum.

    The second semilattice may live over a sublattice of the first ambient
    (each of its cosets then lands in a single class of the larger lattice).
    """
    amb = s1.lattice
    for j in range(s2.dim):
        col = tuple(s2.lattice.basis[i][j] for i in range(s2.dim))
        if not amb.contains(col):
            raise ValueError("second semilattice is not inside the first ambient lattice")
    keys = set()
    for a in s1.reps:
        ka = s1.key(a)
        for b in s2.reps:
            kb = amb.coords(b)
            if kb is None:
                raise ValueError("semilattices live over incompatible lattices")
            kb = tuple(x % 2 for x in kb)
            keys.add(tuple((x + y) % 2 for x, y in zip(ka, kb)))
    return frozenset(keys)
