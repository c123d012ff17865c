"""The irreducible reduced finite root systems, as integer data in simple-root coordinates.

`build_finite` generates the roots in the usual orthonormal model of each type
(twice it for E6, E7, E8 and F4, whose usual models have half-integer
entries; scaling keeps the lexicographic order), sorts them, takes the
lex-positive roots that are not a difference of two positive roots as simple
roots, and reads off each root's simple-root coordinates and the Gram matrix
of the simple roots.  The model is then dropped: a `FiniteRootSystem` is those
coordinates plus the Gram matrix, and its pairing and reflection tables,
which the rest of the package works with, are derived from them exactly.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .base import IntMatrix, IntVector, json_int, record
from .lattice import vec_add, vec_sub

Coords = tuple[int, ...]

_RANK_RULES = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 3,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}

_LACING = {"A": 1, "D": 1, "E": 1, "B": 2, "C": 2, "F": 2, "G": 3}


@record
class FiniteType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        json_int(self.rank, "rank")
        if self.family not in _RANK_RULES:
            raise ValueError(f"unknown family {self.family!r}")
        if not _RANK_RULES[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    @property
    def lacing(self) -> int:
        """Maximum edge multiplicity of the Dynkin diagram (1, 2 or 3)."""
        return _LACING[self.family]

    @property
    def simply_laced(self) -> bool:
        return self.lacing == 1

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _vec(n: int, entries) -> Coords:
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def _pairs(n: int, c: int) -> list[Coords]:
    """+-c e_i +- c e_j for i < j."""
    return [
        _vec(n, ((i, si * c), (j, sj * c)))
        for i, j in itertools.combinations(range(n), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]


def _units(n: int, c: int) -> list[Coords]:
    """+-c e_i."""
    return [_vec(n, ((i, s * c),)) for i in range(n) for s in (1, -1)]


def _differences(n: int) -> list[Coords]:
    """e_i - e_j for i != j."""
    return [_vec(n, ((i, 1), (j, -1))) for i, j in itertools.permutations(range(n), 2)]


def _generate(t: FiniteType) -> list[Coords]:
    """The roots of `t` in its usual model, doubled for E and F."""
    fam, r = t.family, t.rank
    if fam == "A":
        return _differences(r + 1)
    if fam == "B":
        return _pairs(r, 1) + _units(r, 1)
    if fam == "C":
        return _pairs(r, 1) + _units(r, 2)
    if fam == "D":
        return _pairs(r, 1)
    if fam == "E":
        # 2(+-e_i +- e_j), and (+-1, ..., +-1) with an even number of minus signs
        e8 = _pairs(8, 2) + [
            s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0
        ]
        if r == 8:
            return e8
        if r == 7:
            # vanishing pairing with e7 + e8
            return [v for v in e8 if v[6] + v[7] == 0]
        return [v for v in e8 if v[5] == v[6] == -v[7]]
    if fam == "F":
        return _units(4, 2) + list(itertools.product((1, -1), repeat=4)) + _pairs(4, 2)
    # G2: e_i - e_j and +-(2 e_i - e_j - e_k), in the plane x + y + z = 0
    third = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    return _differences(3) + third + [tuple(-x for x in v) for v in third]


def _dot(x: Coords, y: Coords) -> int:
    return sum(a * b for a, b in zip(x, y))


@record
class FiniteRootSystem:
    """A finite root system as the simple-root coordinates of its roots.

    `coords` lists every root in the order of the sorted usual model.  `gram`
    holds the inner products of the simple roots, scaled so that short roots
    have norm 2; the norm of a root c is c.gram.c.
    """

    type: FiniteType
    coords: tuple[IntVector, ...]
    gram: IntMatrix

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def lacing(self) -> int:
        return self.type.lacing

    def _gram_times(self, c: IntVector) -> IntVector:
        return tuple(_dot(row, c) for row in self.gram)

    @cached_property
    def coord_index(self) -> dict[IntVector, int]:
        """Position in the root list, keyed by simple-root coordinates."""
        return {c: i for i, c in enumerate(self.coords)}

    @cached_property
    def short_coords(self) -> frozenset[IntVector]:
        return frozenset(c for c in self.coords if _dot(c, self._gram_times(c)) == 2)

    @cached_property
    def pairing_table(self) -> tuple[tuple[int, ...], ...]:
        """pairing_table[i][j] = 2(b, a) / (a, a) for b = coords[i], a = coords[j].

        Pairing against a fixed root a is linear, so each entry is a dot
        product of b with the pairings of the simple roots against a.
        """
        cols = []
        for a in self.coords:
            ga = self._gram_times(a)
            cols.append(tuple(2 * g // _dot(a, ga) for g in ga))
        return tuple(tuple(_dot(b, col) for col in cols) for b in self.coords)

    @cached_property
    def reflect_table(self) -> tuple[tuple[int, ...], ...]:
        """reflect_table[i][j] = index of coords[j] reflected through coords[i]."""
        index, pairs = self.coord_index, self.pairing_table
        return tuple(
            tuple(
                index[tuple(x - pairs[j][i] * y for x, y in zip(b, a))]
                for j, b in enumerate(self.coords)
            )
            for i, a in enumerate(self.coords)
        )


def build_finite(t: FiniteType) -> FiniteRootSystem:
    """Simple-root coordinates and Gram matrix of `t`, read off its usual model.

    Every positive root that is not simple is a positive root plus a simple
    root, so walking up from the simple roots gives each its coordinates.
    """
    roots = sorted(_generate(t))
    short = min(_dot(r, r) for r in roots)
    if any(_dot(r, r) not in (short, t.lacing * short) for r in roots):
        raise AssertionError(f"{t} has a root of unexpected norm")
    zero = (0,) * len(roots[0])
    positive = [r for r in roots if r > zero]
    pos = set(positive)
    simple = sorted(
        (p for p in positive
         if not any(q != p and vec_sub(p, q) in pos for q in pos)),
        reverse=True,
    )
    if len(simple) != t.rank:
        raise AssertionError(f"found {len(simple)} simple roots for rank {t.rank}")
    units = [tuple(int(i == j) for j in range(t.rank)) for i in range(t.rank)]
    table = dict(zip(simple, units))
    walk = list(simple)
    for p in walk:  # the walk grows as it reaches new roots
        for s, unit in zip(simple, units):
            q = vec_add(p, s)
            if q in pos and q not in table:
                table[q] = vec_add(table[p], unit)
                walk.append(q)
    if len(table) != len(positive):
        raise AssertionError("the walk from the simple roots missed a positive root")
    coords = tuple(
        table[r] if r > zero else tuple(-x for x in table[tuple(-x for x in r)])
        for r in roots
    )
    gram = tuple(tuple(2 * _dot(a, b) // short for b in simple) for a in simple)
    return FiniteRootSystem(t, coords, gram)
