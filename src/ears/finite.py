"""Standard realizations of the irreducible reduced finite root systems.

Coordinates are integers.  Types A, B, C, D and G use their usual orthonormal
models; E6, E7, E8 and F4 use twice theirs, whose only non-integral entries
are halves.  Scaling by a positive factor keeps the lexicographic order, so
the sorted root list and the lex-positive simple roots are those of the usual
models.  The inner product is the plain dot product, and `norm` rescales it
so that short roots have norm 2.  Pairings, reflections and root strings are
therefore exact integer data.

Every root also has integer coordinates in the simple-root basis (`coords`);
the rest of the package works only with those, through tables keyed or
indexed by them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .lattice import IntLattice, IntVector, json_int

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


@dataclass(frozen=True)
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

    @classmethod
    def parse(cls, text: str) -> "FiniteType":
        text = text.strip()
        if len(text) < 2 or not text[0].isalpha():
            raise ValueError(f"cannot parse finite type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


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


@dataclass(frozen=True)
class FiniteRootSystem:
    """An irreducible reduced finite root system in its standard realization."""

    type: FiniteType
    roots: tuple[Coords, ...]

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def dim(self) -> int:
        return len(self.roots[0])

    @property
    def lacing(self) -> int:
        return self.type.lacing

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Dot product of realization coordinates."""
        return sum(a * b for a, b in zip(x, y, strict=True))

    @cached_property
    def _short_inner(self) -> int:
        return min(self.inner(r, r) for r in self.roots)

    def norm(self, x: Sequence[int]) -> int:
        """Squared length, normalized so that short roots have norm 2."""
        n, rem = divmod(2 * self.inner(x, x), self._short_inner)
        if rem:
            raise ValueError(f"{tuple(x)} has a non-integral norm")
        return n

    @cached_property
    def root_index(self) -> dict[Coords, int]:
        return {r: i for i, r in enumerate(self.roots)}

    def is_root(self, v: Sequence[int]) -> bool:
        return tuple(v) in self.root_index

    @cached_property
    def short_roots(self) -> tuple[Coords, ...]:
        return tuple(r for r in self.roots if self.norm(r) == 2)

    @cached_property
    def long_roots(self) -> tuple[Coords, ...]:
        return tuple(r for r in self.roots if self.norm(r) != 2)

    def pairing(self, beta: Sequence[int], alpha: Sequence[int]) -> int:
        """Integer Cartan pairing 2(beta, alpha) / (alpha, alpha)."""
        na = self.inner(alpha, alpha)
        if na == 0:
            raise ValueError("pairing against the zero vector")
        c, rem = divmod(2 * self.inner(beta, alpha), na)
        if rem:
            raise ValueError("non-integral pairing: arguments are not root data")
        return c

    def reflect(self, alpha: Coords, beta: Coords) -> Coords:
        """Reflection of beta in the hyperplane orthogonal to alpha."""
        c = self.pairing(beta, alpha)
        out = tuple(b - c * a for a, b in zip(alpha, beta))
        if out not in self.root_index:
            raise ValueError("reflection left the root system")
        return out

    def root_string(self, alpha: Coords, beta: Sequence[int]) -> tuple[int, int]:
        """(d, u) for the alpha-string through beta inside roots union {0}.

        beta may be a root or 0; the string is checked to be an unbroken
        segment with d - u equal to the Cartan pairing.
        """
        if self.inner(alpha, alpha) == 0:
            raise ValueError("string direction must be a root")
        zero = (0,) * self.dim
        members = set()
        for n in range(-8, 9):
            v = tuple(b + n * a for a, b in zip(alpha, beta))
            if v == zero or v in self.root_index:
                members.add(n)
        if 0 not in members:
            raise ValueError("string base must be a root or zero")
        d, u = -min(members), max(members)
        if members != set(range(-d, u + 1)):
            raise AssertionError("broken root string")
        if d - u != self.pairing(beta, alpha):
            raise AssertionError("root string violates d - u = pairing")
        return d, u

    @cached_property
    def positive_roots(self) -> tuple[Coords, ...]:
        # lexicographic positivity defines a valid positive system
        return tuple(r for r in self.roots if r > (0,) * len(r))

    @cached_property
    def simple_roots(self) -> tuple[Coords, ...]:
        pos = set(self.positive_roots)
        simple = []
        for p in self.positive_roots:
            decomposable = any(
                q != p and tuple(a - b for a, b in zip(p, q)) in pos for q in pos
            )
            if not decomposable:
                simple.append(p)
        if len(simple) != self.rank:
            raise AssertionError(f"found {len(simple)} simple roots for rank {self.rank}")
        return tuple(sorted(simple, reverse=True))

    @cached_property
    def simple_coords_table(self) -> dict[Coords, tuple[int, ...]]:
        """Integer coordinates of every root in the simple-root basis.

        The Cartan matrix maps simple coordinates to pairings with the simple
        roots, so one Smith form of it solves for every root.
        """
        simple = self.simple_roots
        cartan = IntLattice(
            tuple(tuple(self.pairing(a, b) for a in simple) for b in simple)
        )
        table = {}
        for r in self.roots:
            c = cartan.coords(tuple(self.pairing(r, b) for b in simple))
            if c is None:
                raise AssertionError(f"root {r} has non-integral simple coordinates")
            table[r] = c
        return table

    @cached_property
    def coords(self) -> tuple[IntVector, ...]:
        """Simple-root coordinates of the roots, in root-list order.

        This integer form is the one `ears.system` works with; the tables
        below are indexed in the same order.
        """
        table = self.simple_coords_table
        return tuple(table[r] for r in self.roots)

    @cached_property
    def coord_index(self) -> dict[IntVector, int]:
        """Position in the root list, keyed by simple-root coordinates."""
        return {c: i for i, c in enumerate(self.coords)}

    @cached_property
    def short_coords(self) -> frozenset[IntVector]:
        table = self.simple_coords_table
        return frozenset(table[r] for r in self.short_roots)

    @cached_property
    def pairing_table(self) -> tuple[tuple[int, ...], ...]:
        """pairing_table[i][j] = pairing of roots[i] against roots[j].

        Pairing against a fixed root is linear in the first argument, so each
        entry is a dot product of simple-root coordinates with the pairings of
        the simple roots against roots[j].
        """
        simple = self.simple_roots
        cols = [tuple(self.pairing(s, a) for s in simple) for a in self.roots]
        return tuple(
            tuple(sum(x * y for x, y in zip(b, col)) for col in cols)
            for b in self.coords
        )

    @cached_property
    def reflect_table(self) -> tuple[tuple[int, ...], ...]:
        """reflect_table[i][j] = index of roots[j] reflected through roots[i]."""
        index, pairs = self.coord_index, self.pairing_table
        return tuple(
            tuple(
                index[tuple(x - pairs[j][i] * y for x, y in zip(b, a))]
                for j, b in enumerate(self.coords)
            )
            for i, a in enumerate(self.coords)
        )

    @cached_property
    def highest_short(self) -> Coords:
        return self._dominant(self.short_roots)

    @cached_property
    def highest_long(self) -> Coords | None:
        if not self.long_roots:
            return None
        return self._dominant(self.long_roots)

    def _dominant(self, pool: tuple[Coords, ...]) -> Coords:
        found = [
            r
            for r in pool
            if all(self.pairing(r, s) >= 0 for s in self.simple_roots)
        ]
        if len(found) != 1:
            raise AssertionError("dominant root in a length class must be unique")
        return found[0]


def build_finite(t: FiniteType) -> FiniteRootSystem:
    """Construct the full root list for a finite type, sorted for determinism."""
    system = FiniteRootSystem(t, tuple(sorted(_generate(t))))
    for r in system.roots:
        n = system.norm(r)
        if n not in (2, 2 * t.lacing):
            raise AssertionError(f"root {r} has unexpected norm {n}")
    return system
