"""The exact integer linear-algebra core, integer lattices and semilattices.

Every elimination in the package happens here: Smith normal form, Bareiss
determinant, unimodular inverse, and solving over Z and Z/m.  All of it works
over plain Python integers, so there is no precision limit and no floating
point anywhere.  Vectors are tuples of ints, matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from math import gcd
from operator import attrgetter
from typing import Iterable, Sequence

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def json_int(value, field: str) -> int:
    """An int; floats, strings and booleans are rejected, not coerced.

    This is the one integer check, for JSON input and library arguments alike.
    """
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def size_int(value, field: str) -> int:
    """A `json_int` of at most `sys.maxsize`, for a value that becomes a
    range bound, a repeat count or a tuple length, which Python caps there."""
    if json_int(value, field) > sys.maxsize:
        raise ValueError(f"{field} must be at most {sys.maxsize}, got {value}")
    return value


_MISSING = object()


class field:
    """One field of a `record`, with the options `dataclasses.field` takes:
    its default, and whether `__init__` takes it, the repr shows it, and `==`
    and `hash` read it."""

    __slots__ = ("name", "default", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, init=True, repr=True, compare=True):
        self.name = None
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def record(cls: type) -> type:
    """`dataclasses.dataclass(frozen=True)`, built from closures.

    The fields are the annotated names of the class, after those of its
    record bases; each has a plain default, a `field`, or nothing.  Added:
    `__init__` (by position or keyword, with the interpreter's messages for a
    bad call, then `__post_init__` if the class has one), a repr of the shown
    fields, `==` and `hash` on the tuple of compared fields, and assignment
    and deletion that raise `AttributeError`; these replace any the class
    body defines, which no record does.  Nothing is compiled:
    `dataclasses` imports `inspect` and generates source for every class,
    which a short command paid at each start.
    """
    fields = {f.name: f for base in cls.__mro__[-1:0:-1]
              for f in base.__dict__.get("__record_fields__", ())}
    for name in cls.__dict__.get("__annotations__", {}):
        value = getattr(cls, name, _MISSING)
        if isinstance(value, field):
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
        else:
            value = field(value)
        value.name = name
        fields[name] = value
    fields = tuple(fields.values())
    names = tuple(f.name for f in fields if f.init)
    defaults = tuple(f.default for f in fields if f.init)
    position = {name: i for i, name in enumerate(names)}
    compared = tuple(f.name for f in fields if f.compare)
    # the tuple of compared fields; attrgetter needs a name and gives one bare
    fetch = attrgetter(*compared) if len(compared) > 1 else (
        lambda self: tuple([getattr(self, name) for name in compared]))
    shown = tuple(f.name for f in fields if f.repr)
    frozen = frozenset(f.name for f in fields)
    post_init = hasattr(cls, "__post_init__")
    call = f"{cls.__qualname__}.__init__()"

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call other than one value per field by position."""
        values = [*args[: len(names)], *defaults[len(args):]]
        for key, value in kwargs.items():
            i = position.get(key)
            if i is None:
                raise TypeError(f"{call} got an unexpected keyword argument {key!r}")
            if i < len(args):
                raise TypeError(f"{call} got multiple values for argument {key!r}")
            values[i] = value
        if len(args) > len(names):
            top = len(names) + 1  # counting self
            optional = sum(d is not _MISSING for d in defaults)
            takes = f"from {top - optional} to {top}" if optional else str(top)
            plural = "s" if optional or top > 1 else ""
            raise TypeError(f"{call} takes {takes} positional argument{plural} "
                            f"but {len(args) + 1} were given")
        missing = [repr(n) for n, v in zip(names, values) if v is _MISSING]
        if missing:
            listed = ", ".join(missing[:-1]) + "," * (len(missing) > 2)
            listed = f"{listed} and {missing[-1]}" if listed else missing[0]
            raise TypeError(f"{call} missing {len(missing)} required positional "
                            f"argument{'s' * (len(missing) > 1)}: {listed}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fetch(self) == fetch(other)
        return NotImplemented

    def __hash__(self):
        return hash(fetch(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in frozen:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in frozen:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = fields
    return cls


def json_object(value, field: str, keys: Iterable[str] | None = None) -> dict:
    """A JSON object; a list, string or number is rejected, and so is any key
    outside `keys` when they are given."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    if keys is not None and not set(value) <= set(keys):
        raise ValueError(f"{field} does not take {sorted(set(value) - set(keys))}")
    return value


def json_int_rows(rows: Iterable[Sequence[int]], field: str) -> IntMatrix:
    """Rows as a tuple of int tuples, each entry checked by `json_int`."""
    return tuple(tuple(json_int(x, field) for x in row) for row in rows)


def parity(v: Iterable[int]) -> IntVector:
    """Coordinates mod 2: the class key of a lattice point modulo the doubled lattice."""
    return tuple([x & 1 for x in v])


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
    a = [list(row) for row in json_int_rows(m, "matrix entry")]
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


Smith = tuple[list[dict[int, int]], IntVector, list[dict[int, int]]]


def _sub(x: dict[int, int], y: dict[int, int], q: int) -> None:
    """x -= q * y on sparse vectors, in place; entries that cancel are dropped."""
    for k, c in y.items():
        s = x.get(k, 0) - q * c
        if s:
            x[k] = s
        else:
            x.pop(k, None)


def _smith(mat: Sequence[Sequence[int]]) -> Smith:
    """The one elimination: Smith normal form with sparse transforms.

    Returns (u, diag, v) with u * mat * v = D, where u[i] is row i of the
    left transform as {input row: coefficient}, v[j] is column j of the right
    transform as {input column: coefficient}, and diag lists the first
    min(rows, cols) diagonal entries of D.  A row operation costs the size of
    the combination it touches, not the number of rows, so tall systems
    carry no rows x rows matrix.  The pivots are the entries of least
    absolute value, first in row-major order.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("ragged matrix")
    a = [list(row) for row in json_int_rows(mat, "matrix entry")]
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]

    def row_sub(i: int, k: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        _sub(u[i], u[k], q)

    def col_sub(j: int, k: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[k]
        _sub(v[j], v[k], q)

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        v[j], v[k] = v[k], v[j]

    t = 0
    while t < min(rows, cols):
        piv, least = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not least or x < least):
                    piv, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                # nothing is smaller, so no later entry replaces this pivot
                break
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
            # pivot must divide the trailing block for the divisibility chain;
            # a unit pivot always does
            p = a[t][t]
            fix = None if abs(p) == 1 else next(
                (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:])), None
            )
            if fix is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fix])]
            _sub(u[t], u[fix], -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = {k: -c for k, c in u[t].items()}
        t += 1
    return u, tuple(a[i][i] for i in range(min(rows, cols))), v


def snf(mat: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form of an arbitrary rectangular integer matrix.

    Returns (u, d, v) with u * mat * v = d, u and v unimodular, and d diagonal
    with non-negative entries forming a divisibility chain d1 | d2 | ...
    Total: works for empty and all-zero matrices.  This is a dense view of
    `_smith`, for square work such as `inverse_unimodular`.
    """
    u, diag, v = _smith(mat)
    rows, cols = len(u), len(v)
    return (
        tuple(tuple(ui.get(k, 0) for k in range(rows)) for ui in u),
        tuple(tuple(diag[i] if i == j else 0 for j in range(cols)) for i in range(rows)),
        tuple(tuple(vj.get(i, 0) for vj in v) for i in range(cols)),
    )


@record
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
    smith: Smith, b: Sequence[int], m: int
) -> tuple[IntVector | None, IntVector | None]:
    """Back-substitution through a Smith form u A v = D: solve A x = b over Z/m.

    m == 0 means over Z.  Returns (x, None) with x = v y, not reduced mod m, or
    (None, r) where r is a multiple of a row of u.  For m >= 1, r.A = 0 and
    r.b != 0 (mod m); over Z only the failure itself is meaningful.

    Row i of u times A is d_i times a row of v^-1, so a failing row with
    d_i = 0 gives an exact certificate (r.A = 0 over Z).  The first failing
    row is returned when it is exact; otherwise the first exact one after it,
    and the first failing row only when none is exact.  Only the returned
    row is written out densely.
    """
    u, diag, v = smith

    def cert(i: int, scale: int) -> IntVector:
        return tuple(scale * u[i].get(k, 0) for k in range(len(u)))

    y = [0] * len(v)
    first = None
    for i, ui in enumerate(u):
        ci = sum(c * b[k] for k, c in ui.items())
        di = diag[i] if i < len(y) else 0
        g = gcd(di, m)
        if g == 0:
            if ci:
                return None, cert(i, 1)
            continue
        if ci % g:
            # (m//g) * row_i(u) kills A mod m but not b
            if di == 0 or m == 0:
                return None, cert(i, m // g)
            if first is None:
                first = (i, m // g)
        elif first is not None:
            continue
        elif m == 0:
            y[i] = ci // di
        elif m > g:
            mm = m // g
            y[i] = ((ci // g) * pow(di // g, -1, mm)) % mm
    if first is not None:
        return None, cert(*first)
    x = [0] * len(v)
    for yj, vj in zip(y, v):
        if yj:
            for k, c in vj.items():
                x[k] += c * yj
    return tuple(x), None


def solve_mod(
    a: Sequence[Sequence[int]], b: Sequence[int], m: int
) -> ModSolveResult:
    """Solve A x = b over Z/m, or produce an UNSAT certificate."""
    if json_int(m, "modulus") < 1:
        raise ValueError("modulus must be >= 1")
    b = tuple(json_int(x, "right-hand side entry") for x in b)
    if len(b) != len(a):
        raise ValueError("right-hand side length does not match row count")
    x, cert = _solve_snf(_smith(a), b, m)
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


def generates(vectors: Sequence[Sequence[int]], n: int) -> bool:
    """Do these integer vectors of length n generate Z^n?"""
    if len(vectors) < n:
        return False
    diag = _smith(tuple(zip(*vectors)))[1]
    return all(diag[i] == 1 for i in range(n))


@record
class IntLattice:
    """Full-rank lattice in Z^n, given by a square basis matrix whose columns generate it."""

    basis: IntMatrix

    def __post_init__(self) -> None:
        n = len(self.basis)
        object.__setattr__(self, "basis", json_int_rows(self.basis, "basis entry"))
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
    def _smith(self) -> Smith:
        return _smith(self.basis)

    def coords(self, v: Sequence[int]) -> IntVector | None:
        """Coordinates of v in this basis, or None when v is not a lattice point."""
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        return _solve_snf(self._smith, [json_int(x, "vector entry") for x in v], 0)[0]

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

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": [list(row) for row in self.basis]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntLattice":
        basis = json_object(obj, "lattice", ("dim", "basis"))["basis"]
        if len(basis) != json_int(obj["dim"], "dim"):
            raise ValueError("lattice dim does not match basis")
        return cls(basis)


@record
class Semilattice:
    """Union of cosets of 2L in a lattice L, described by coset representatives.

    The first representative must be 0, representatives must be pairwise
    distinct mod 2L, and together with 2L they must span L.  Membership and
    coset classification never enumerate points: a vector is reduced to its
    parity pattern in basis coordinates, which labels its coset of 2L.
    """

    lattice: IntLattice
    reps: tuple[IntVector, ...]
    # representative index by class key (parity pattern of basis coordinates)
    class_index: dict[IntVector, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reps", json_int_rows(self.reps, "rep entry"))
        if not self.reps:
            raise ValueError("need at least the trivial representative 0")
        if any(self.reps[0]):
            raise ValueError("first representative must be 0")
        keys = []
        for r in self.reps:
            key = self.key(r)
            if key is None:
                raise ValueError(f"representative {r} lies outside the lattice")
            keys.append(key)
        index = {key: i for i, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ValueError("representatives are not distinct mod 2L")
        n = self.dim
        doubled = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]
        if not generates(keys + doubled, n):
            raise ValueError("representatives do not span the lattice mod 2L")
        object.__setattr__(self, "class_index", index)

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

    def key(self, v: Sequence[int]) -> IntVector | None:
        """Parity pattern of v in basis coordinates; None when v is outside L."""
        c = self.lattice.coords(v)
        return None if c is None else parity(c)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.dim:
            return False
        k = self.key(v)
        return k is not None and k in self.class_index

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "lattice_basis": [list(row) for row in self.lattice.basis],
            "reps": [list(r) for r in self.reps],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Semilattice":
        keys = ("dim", "lattice_basis", "reps")
        lat = IntLattice(json_object(obj, "semilattice", keys)["lattice_basis"])
        if lat.dim != json_int(obj["dim"], "dim"):
            raise ValueError("semilattice dim does not match basis")
        return cls(lat, obj["reps"])


def sum_semilattices(s1: Semilattice, s2: Semilattice) -> frozenset[IntVector]:
    """Coset classes (parity keys) of the pointwise sum of two semilattices
    over one lattice."""
    if s1.lattice != s2.lattice:
        raise ValueError("semilattices live over different lattices")
    return frozenset(parity(vec_add(a, b)) for a in s1.class_index for b in s2.class_index)
