"""Standard realizations of the irreducible reduced finite root systems.

Coordinates are exact rationals in the usual orthonormal models (denominators
at most 2), with the inner product scaled per type so that short roots always
have squared length 2.  Pairings, reflections and root strings are therefore
exact integer data.

The rationals stay in this module.  Every root also has integer coordinates
in the simple-root basis (`coords`); the rest of the package works only with
those, through tables keyed or indexed by them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .lattice import IntLattice, IntVector

Coords = tuple[Fraction, ...]

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


def _q(x) -> Fraction:
    return Fraction(x)


def _e8_roots() -> list[Coords]:
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return roots


def _generate(t: FiniteType) -> tuple[list[Coords], Fraction]:
    fam, r = t.family, t.rank
    roots: list[Coords] = []
    scale = Fraction(1)
    if fam == "A":
        n = r + 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [Fraction(0)] * n
                    v[i], v[j] = Fraction(1), Fraction(-1)
                    roots.append(tuple(v))
    elif fam in ("B", "C", "D"):
        for i in range(r):
            for j in range(i + 1, r):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [Fraction(0)] * r
                        v[i], v[j] = Fraction(si), Fraction(sj)
                        roots.append(tuple(v))
        if fam == "B":
            scale = Fraction(2)
            for i in range(r):
                for s in (1, -1):
                    v = [Fraction(0)] * r
                    v[i] = Fraction(s)
                    roots.append(tuple(v))
        elif fam == "C":
            for i in range(r):
                for s in (2, -2):
                    v = [Fraction(0)] * r
                    v[i] = Fraction(s)
                    roots.append(tuple(v))
    elif fam == "E":
        e8 = _e8_roots()
        if r == 8:
            roots = e8
        elif r == 7:
            # vanishing pairing with e7 + e8
            roots = [v for v in e8 if v[6] + v[7] == 0]
        else:
            roots = [v for v in e8 if v[5] - v[6] == 0 and v[5] + v[7] == 0]
    elif fam == "F":
        scale = Fraction(2)
        for i in range(4):
            for s in (1, -1):
                v = [Fraction(0)] * 4
                v[i] = Fraction(s)
                roots.append(tuple(v))
        half = Fraction(1, 2)
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(tuple(half * s for s in signs))
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [Fraction(0)] * 4
                        v[i], v[j] = Fraction(si), Fraction(sj)
                        roots.append(tuple(v))
    elif fam == "G":
        for i in range(3):
            for j in range(3):
                if i != j:
                    v = [Fraction(0)] * 3
                    v[i], v[j] = Fraction(1), Fraction(-1)
                    roots.append(tuple(v))
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            v = [Fraction(0)] * 3
            v[i], v[j], v[k] = Fraction(2), Fraction(-1), Fraction(-1)
            roots.append(tuple(v))
            roots.append(tuple(-x for x in v))
    return roots, scale


@dataclass(frozen=True)
class FiniteRootSystem:
    """An irreducible reduced finite root system in its standard realization."""

    type: FiniteType
    roots: tuple[Coords, ...]
    scale: Fraction

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def dim(self) -> int:
        return len(self.roots[0])

    @property
    def lacing(self) -> int:
        return self.type.lacing

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        return self.scale * sum(
            (_q(a) * _q(b) for a, b in zip(x, y, strict=True)), Fraction(0)
        )

    def norm(self, x: Sequence) -> Fraction:
        return self.inner(x, x)

    @cached_property
    def root_index(self) -> dict[Coords, int]:
        return {r: i for i, r in enumerate(self.roots)}

    def is_root(self, v: Sequence) -> bool:
        return tuple(_q(x) for x in v) in self.root_index

    @cached_property
    def short_roots(self) -> tuple[Coords, ...]:
        return tuple(r for r in self.roots if self._root_norms[r] == 2)

    @cached_property
    def long_roots(self) -> tuple[Coords, ...]:
        return tuple(r for r in self.roots if self._root_norms[r] != 2)

    @cached_property
    def _root_norms(self) -> dict[Coords, Fraction]:
        return {r: self.norm(r) for r in self.roots}

    def pairing(self, beta: Sequence, alpha: Coords) -> int:
        """Integer Cartan pairing 2(beta, alpha) / (alpha, alpha)."""
        na = self._root_norms.get(tuple(alpha))
        if na is None:
            na = self.norm(alpha)
        if na == 0:
            raise ValueError("pairing against the zero vector")
        val = 2 * self.inner(beta, alpha) / na
        if val.denominator != 1:
            raise ValueError("non-integral pairing: arguments are not root data")
        return int(val)

    def reflect(self, alpha: Coords, beta: Coords) -> Coords:
        """Reflection of beta in the hyperplane orthogonal to alpha."""
        c = self.pairing(beta, alpha)
        out = tuple(_q(b) - c * _q(a) for a, b in zip(alpha, beta))
        if out not in self.root_index:
            raise ValueError("reflection left the root system")
        return out

    def root_string(self, alpha: Coords, beta: Sequence) -> tuple[int, int]:
        """(d, u) for the alpha-string through beta inside roots union {0}.

        beta may be a root or 0; the string is checked to be an unbroken
        segment with d - u equal to the Cartan pairing.
        """
        if self.norm(alpha) == 0:
            raise ValueError("string direction must be a root")
        zero = tuple(Fraction(0) for _ in range(self.dim))
        members = set()
        for n in range(-8, 9):
            v = tuple(_q(b) + n * _q(a) for a, b in zip(alpha, beta))
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
        return tuple(r for r in self.roots if r > tuple(Fraction(0) for _ in r))

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
    roots, scale = _generate(t)
    system = FiniteRootSystem(t, tuple(sorted(roots)), scale)
    for r, n in system._root_norms.items():
        if n not in (Fraction(2), Fraction(2 * t.lacing)):
            raise AssertionError(f"root {r} has unexpected norm {n}")
    return system


def highest_roots(f: FiniteRootSystem) -> tuple[Coords, Coords | None]:
    """Highest short root and highest long root (None when simply laced)."""
    return f.highest_short, f.highest_long
