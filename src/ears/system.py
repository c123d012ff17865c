"""Extended affine root systems built from a finite root system and semilattice data.

A system is the disjoint union of an isotropic part S + S and translated
copies of the finite short/long roots, with translation sets S and L coupled
by S + L = S and kS + L = L (k the lacing number).  Roots are pairs of integer
vectors: the finite part in simple-root coordinates and the isotropic part in
coordinates of the ambient lattice basis.  Membership is decided intensionally
from coset classes (coordinates mod 2 for S), never by point enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .finite import FiniteRootSystem, FiniteType, build_finite
from .lattice import (
    IntLattice,
    IntVector,
    Semilattice,
    json_int,
    sum_semilattices,
    vec_add,
    vec_scale,
    vec_sub,
)


class RootClass(Enum):
    SHORT = "short"
    LONG = "long"
    ISOTROPIC = "isotropic"
    NOT_A_ROOT = "not_a_root"

    @property
    def is_root(self) -> bool:
        return self is not RootClass.NOT_A_ROOT


class Root(NamedTuple):
    """A root: finite part in simple-root coordinates (None when isotropic) plus
    isotropic part in ambient-lattice coordinates."""

    finite: IntVector | None
    iso: IntVector


def parity(v: Sequence[int]) -> IntVector:
    """Coordinates mod 2: the class key of a lattice point modulo the doubled lattice."""
    return tuple([x & 1 for x in v])


@dataclass(frozen=True)
class Window:
    """Finite truncation: cap on the sup-norm of isotropic basis coordinates."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("window bound must be >= 0")


@dataclass(frozen=True)
class EarsSpec:
    """Construction data: finite type, nullity, twist, and semilattice components.

    Three shapes are accepted.  Type A1 takes a single semilattice `s`.
    Simply-laced types of rank >= 2 take a single `lattice`.  The remaining
    types take semilattices `s1` (rank = twist) and `s2` (rank = nullity - twist).
    """

    type: FiniteType
    nullity: int
    twist: int = 0
    s: Semilattice | None = None
    lattice: IntLattice | None = None
    s1: Semilattice | None = None
    s2: Semilattice | None = None

    def __post_init__(self) -> None:
        if self.nullity < 0:
            raise ValueError("nullity must be >= 0")
        if not 0 <= self.twist <= self.nullity:
            raise ValueError("twist must satisfy 0 <= t <= nullity")
        forms = [self.s is not None, self.lattice is not None,
                 self.s1 is not None or self.s2 is not None]
        if sum(forms) != 1:
            raise ValueError("exactly one of s / lattice / (s1, s2) must be given")
        fam, rank = self.type.family, self.type.rank
        if self.s is not None:
            if not (fam == "A" and rank == 1):
                raise ValueError("single-semilattice form is reserved for type A1")
            if self.twist:
                raise ValueError("type A1 has no twist")
            if self.s.dim != self.nullity:
                raise ValueError("semilattice rank must equal the nullity")
        elif self.lattice is not None:
            if not (self.type.simply_laced and rank >= 2):
                raise ValueError("lattice form is reserved for simply-laced rank >= 2")
            if self.twist:
                raise ValueError("simply-laced systems have no twist")
            if self.lattice.dim != self.nullity:
                raise ValueError("lattice rank must equal the nullity")
        else:
            if self.s1 is None or self.s2 is None:
                raise ValueError("both s1 and s2 are required")
            if self.type.simply_laced:
                raise ValueError("component form is reserved for non-simply-laced types")
            if self.s1.dim != self.twist:
                raise ValueError("rank of s1 must equal the twist")
            if self.s2.dim != self.nullity - self.twist:
                raise ValueError("rank of s2 must equal nullity - twist")
            if fam in ("F", "G"):
                if self.s1.coset_count != 2 ** self.s1.dim:
                    raise ValueError(f"type {fam}{rank} requires s1 to be a lattice")
                if self.s2.coset_count != 2 ** self.s2.dim:
                    raise ValueError(f"type {fam}{rank} requires s2 to be a lattice")
            if fam == "B" and rank >= 3 and self.s2.coset_count != 2 ** self.s2.dim:
                raise ValueError("type B of rank >= 3 requires s2 to be a lattice")
            if fam == "C" and self.s1.coset_count != 2 ** self.s1.dim:
                raise ValueError("type C requires s1 to be a lattice")

    @property
    def kind(self) -> str:
        if self.s is not None:
            return "rank_one"
        if self.lattice is not None:
            return "lattice"
        return "twisted"

    @classmethod
    def rank_one(cls, nullity: int, s: Semilattice) -> "EarsSpec":
        return cls(FiniteType("A", 1), nullity, s=s)

    @classmethod
    def simply_laced(
        cls, type: FiniteType, nullity: int, lattice: IntLattice | None = None
    ) -> "EarsSpec":
        if lattice is None:
            lattice = IntLattice.standard(nullity)
        return cls(type, nullity, lattice=lattice)

    @classmethod
    def twisted(
        cls, type: FiniteType, nullity: int, twist: int, s1: Semilattice, s2: Semilattice
    ) -> "EarsSpec":
        return cls(type, nullity, twist, s1=s1, s2=s2)

    def to_json(self) -> dict:
        out: dict = {
            "type": self.type.family,
            "rank": self.type.rank,
            "nullity": self.nullity,
        }
        if self.kind == "rank_one":
            out["S"] = self.s.to_json()
        elif self.kind == "lattice":
            out["lattice"] = self.lattice.to_json()
        else:
            out["twist"] = self.twist
            out["S1"] = self.s1.to_json()
            out["S2"] = self.s2.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "EarsSpec":
        t = FiniteType(obj["type"], json_int(obj["rank"], "rank"))
        nullity = json_int(obj["nullity"], "nullity")
        if "S" in obj:
            return cls(t, nullity, s=Semilattice.from_json(obj["S"]))
        if "lattice" in obj:
            return cls(t, nullity, lattice=IntLattice.from_json(obj["lattice"]))
        return cls(
            t,
            nullity,
            json_int(obj["twist"], "twist"),
            s1=Semilattice.from_json(obj["S1"]),
            s2=Semilattice.from_json(obj["S2"]),
        )


def _block_lattice(b1: IntLattice, b2: IntLattice, scale1: int = 1) -> IntLattice:
    n1, n2 = b1.dim, b2.dim
    rows = []
    for i in range(n1):
        rows.append(tuple(scale1 * b1.basis[i][j] for j in range(n1)) + (0,) * n2)
    for i in range(n2):
        rows.append((0,) * n1 + tuple(b2.basis[i][j] for j in range(n2)))
    return IntLattice(tuple(rows))


def _concat(a: IntVector, b: IntVector) -> IntVector:
    return tuple(a) + tuple(b)


@dataclass(frozen=True)
class Ears:
    """An extended affine root system with exact membership tests."""

    spec: EarsSpec
    finite: FiniteRootSystem
    S: Semilattice
    L: Semilattice | None

    @property
    def rank(self) -> int:
        return self.finite.rank

    @cached_property
    def nullity(self) -> int:
        return self.spec.nullity

    @property
    def lacing(self) -> int:
        return self.finite.lacing

    @property
    def ambient_lattice(self) -> IntLattice:
        return self.S.lattice

    @cached_property
    def r0_keys(self) -> frozenset[IntVector]:
        """Coset classes of the isotropic support S + S."""
        return sum_semilattices(self.S, self.S)

    @cached_property
    def zero_iso(self) -> IntVector:
        return (0,) * self.nullity

    @cached_property
    def zero_root(self) -> Root:
        return Root(None, self.zero_iso)

    # -- membership -----------------------------------------------------

    def classify(self, finite_part: IntVector | None, iso: IntVector) -> RootClass:
        """Classify a candidate (finite part, isotropic part).

        The finite part is None (isotropic candidate) or a tuple of
        simple-root coordinates; the isotropic part is a tuple of coordinates
        in the ambient lattice basis.  Coordinates are ints: a non-integral
        one names a point outside the root lattice and raises ValueError.
        """
        if len(iso) != self.nullity:
            raise ValueError(f"isotropic part {tuple(iso)} needs {self.nullity} coordinates")
        try:
            key = parity(iso)
        except TypeError:
            raise ValueError(f"isotropic coordinates {tuple(iso)} are not integers") from None
        if finite_part is None:
            return RootClass.ISOTROPIC if key in self.r0_keys else RootClass.NOT_A_ROOT
        short = self._short_of.get(finite_part)
        if short is None:
            return RootClass.NOT_A_ROOT
        if short:
            return RootClass.SHORT if key in self.S.class_keys else RootClass.NOT_A_ROOT
        return RootClass.LONG if self._in_l(iso) else RootClass.NOT_A_ROOT

    @cached_property
    def _short_of(self) -> dict[IntVector, bool]:
        """Finite roots by simple-root coordinates: is the root short."""
        short = self.finite.short_coords
        return {c: c in short for c in self.finite.coords}

    @cached_property
    def _l_modulus(self) -> int:
        """2k when k times the ambient lattice lies in the span of L, else 0.

        L is a union of cosets of twice its span, so in the first case
        membership in L depends only on the coordinates mod 2k.
        """
        amb, k = self.ambient_lattice, self.lacing
        for j in range(amb.dim):
            col = tuple(k * amb.basis[i][j] for i in range(amb.dim))
            if self.L.lattice.coords(col) is None:
                return 0
        return 2 * k

    @cached_property
    def _l_residues(self) -> dict[IntVector, bool]:
        return {}

    def _in_l(self, iso: IntVector) -> bool:
        if self.L is None:
            return False
        m = self._l_modulus
        key = tuple(x % m for x in iso) if m else iso
        hit = self._l_residues.get(key)
        if hit is None:
            hit = self.L.contains(self.ambient_lattice.from_coords(iso))
            self._l_residues[key] = hit
        return hit

    def s_class(self, iso: Sequence[int]) -> int | None:
        """Index of the S representative congruent to iso mod 2L, or None."""
        return self.S.class_index.get(parity(iso))

    def root_class(self, r: Root) -> RootClass:
        return self.classify(r.finite, r.iso)

    def is_root(self, r: Root) -> bool:
        return self.classify(r.finite, r.iso) is not RootClass.NOT_A_ROOT

    # -- arithmetic on roots ---------------------------------------------

    def add(self, a: Root, b: Root) -> Root:
        if a.finite is None:
            fin = b.finite
        elif b.finite is None:
            fin = a.finite
        else:
            fin = tuple(map(add, a.finite, b.finite))
            if not any(fin):
                fin = None
        return Root(fin, tuple(map(add, a.iso, b.iso)))

    def neg(self, r: Root) -> Root:
        fin = None if r.finite is None else tuple(-x for x in r.finite)
        return Root(fin, tuple(-x for x in r.iso))

    def scale_root(self, c: int, r: Root) -> Root:
        fin = None if r.finite is None else tuple(c * x for x in r.finite)
        if fin is not None and not any(fin):
            fin = None
        return Root(fin, tuple(c * x for x in r.iso))

    def finite_index(self, r: Root) -> int:
        """Position of the finite part in the root list; -1 for isotropic."""
        if r.finite is None:
            return -1
        return self.finite.coord_index[r.finite]

    def sort_key(self, r: Root):
        return (self.finite_index(r), r.iso)

    def root_coords(self, r: Root) -> IntVector:
        """Integer coordinates in the root-lattice basis (simple roots, then lattice basis)."""
        fin = (0,) * self.rank if r.finite is None else r.finite
        return fin + r.iso

    def root_from_coords(self, coords: Sequence[int]) -> Root:
        """Inverse of root_coords; the result need not classify as a root."""
        if any(x != int(x) for x in coords):
            raise ValueError(f"root coordinates {tuple(coords)} are not integers")
        coords = tuple(int(x) for x in coords)
        if len(coords) != self.rank + self.nullity:
            raise ValueError("coordinate length mismatch")
        fin, iso = coords[: self.rank], coords[self.rank :]
        return Root(fin if any(fin) else None, iso)

    def pairing(self, beta: Root, alpha: Root) -> int:
        """Cartan pairing; isotropic directions are null for the form."""
        if alpha.finite is None:
            raise ValueError("pairing against an isotropic root")
        if beta.finite is None:
            return 0
        table = self.finite.pairing_table
        return table[self.finite_index(beta)][self.finite_index(alpha)]

    # -- enumeration -----------------------------------------------------

    def window_iso(self, w: Window) -> Iterator[IntVector]:
        """Lattice coordinates with sup-norm <= bound, in lex order."""
        return itertools.product(range(-w.bound, w.bound + 1), repeat=self.nullity)


def _derive_semilattices(spec: EarsSpec) -> tuple[Semilattice, Semilattice | None]:
    if spec.kind == "rank_one":
        return spec.s, None
    if spec.kind == "lattice":
        return Semilattice.full(spec.lattice), None
    k = spec.type.lacing
    b1, b2 = spec.s1.lattice, spec.s2.lattice
    ambient = _block_lattice(b1, b2)
    s_reps = tuple(
        _concat(r1, w2)
        for r1 in spec.s1.reps
        for w2 in Semilattice.full(b2).reps
    )
    s = Semilattice(ambient, _reorder_zero_first(s_reps))
    l_lattice = _block_lattice(b1, b2, scale1=k)
    l_reps = tuple(
        _concat(vec_scale(k, w1), r2)
        for w1 in Semilattice.full(b1).reps
        for r2 in spec.s2.reps
    )
    l = Semilattice(l_lattice, _reorder_zero_first(l_reps))
    return s, l


def _reorder_zero_first(reps: tuple[IntVector, ...]) -> tuple[IntVector, ...]:
    zero = tuple(0 for _ in reps[0]) if reps else ()
    rest = sorted(r for r in reps if r != zero)
    return (zero,) + tuple(rest)


def check_compatibility(e: Ears) -> list[str]:
    """Check S + L = S and kS + L = L on representatives; list the failures."""
    problems: list[str] = []
    if e.L is None:
        return problems
    k = e.lacing
    amb = e.ambient_lattice
    for j in range(e.L.dim):
        col = tuple(e.L.lattice.basis[i][j] for i in range(e.L.dim))
        if not amb.contains(col):
            problems.append(f"span of L is not inside the ambient lattice: column {col}")
    kl = IntLattice(tuple(tuple(k * x for x in row) for row in amb.basis))
    for j in range(amb.dim):
        col = tuple(kl.basis[i][j] for i in range(amb.dim))
        if e.L.lattice.coords(col) is None:
            problems.append(f"k * ambient lattice is not inside span of L: column {col}")
    for l_rep in e.L.reps:
        if not e.S.contains(l_rep):
            problems.append(f"L representative {l_rep} is outside S")
    for s_rep in e.S.reps:
        for l_rep in e.L.reps:
            if not e.S.contains(vec_add(s_rep, l_rep)):
                problems.append(f"S + L leaves S at {s_rep} + {l_rep}")
            if not e.L.contains(vec_add(vec_scale(k, s_rep), l_rep)):
                problems.append(f"kS + L leaves L at {k}*{s_rep} + {l_rep}")
    return problems


def build_ears(spec: EarsSpec) -> Ears:
    """Assemble a system from its spec and validate the coupling identities."""
    finite = build_finite(spec.type)
    s, l = _derive_semilattices(spec)
    e = Ears(spec, finite, s, l)
    problems = check_compatibility(e)
    if problems:
        raise ValueError("; ".join(problems))
    return e


def enumerate_roots(e: Ears, w: Window) -> list[Root]:
    """All roots with isotropic sup-norm at most the window bound.

    Deterministic order: the isotropic block first (in lex order of basis
    coordinates), then one block per finite root in root-list order.
    """
    iso_list = list(e.window_iso(w))
    keys = [parity(iso) for iso in iso_list]
    out = [Root(None, iso) for iso, key in zip(iso_list, keys) if key in e.r0_keys]
    in_s = [iso for iso, key in zip(iso_list, keys) if key in e.S.class_keys]
    in_l = [iso for iso in iso_list if e._in_l(iso)]
    short = e.finite.short_coords
    for fin in e.finite.coords:
        out.extend(Root(fin, iso) for iso in (in_s if fin in short else in_l))
    return out


@dataclass(frozen=True)
class SystemInvariants:
    """Isomorphism invariants together with the index bookkeeping that feeds them."""

    rank: int
    nullity: int
    twist: int
    twist_order: int
    lattice_rank: int
    ind_R: int
    refl_R: int
    convention: str
    ind_S: dict = field(default_factory=dict)
    coset_counts: dict = field(default_factory=dict)
    refl_search: int | None = None
    refl_matches: bool | None = None

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "nullity": self.nullity,
            "twist": self.twist,
            "twist_order": self.twist_order,
            "lattice_rank": self.lattice_rank,
            "ind_R": self.ind_R,
            "refl_R": self.refl_R,
            "convention": self.convention,
            "ind_S": dict(self.ind_S),
            "coset_counts": dict(self.coset_counts),
        }
        if self.refl_search is not None:
            out["refl_search"] = self.refl_search
            out["refl_matches"] = self.refl_matches
        return out


def twist_order(e: Ears) -> int:
    """Order of the quotient of the span of S by the span of L (1 when L is absent)."""
    if e.L is None:
        return 1
    return e.ambient_lattice.index_of_sublattice(e.L.lattice)


def index_formula(e: Ears) -> tuple[int, str]:
    """Per-type index of the system from semilattice counts.

    Type A1 consumes the coset count of S (m + 1); the B and C rows consume
    the non-trivial coset count (m).  Both counts are reported upstream, and
    the returned convention string records which one was used here.
    """
    fam, rank = e.spec.type.family, e.rank
    nu, t = e.nullity, e.spec.twist
    if fam == "A" and rank == 1:
        return e.S.coset_count - 1 - nu, "coset_count"
    if e.spec.kind in ("lattice", "rank_one") or fam in ("F", "G"):
        return 0, "fixed_zero"
    if fam == "B" and rank == 2:
        return e.spec.s1.index + e.spec.s2.index - nu, "index"
    if fam == "B":
        return e.spec.s1.index - t, "index"
    if fam == "C":
        return e.spec.s2.index - (nu - t), "index"
    raise AssertionError(f"no index row for type {fam}{rank}")


def invariants(e: Ears, oracle_window: Window | None = None) -> SystemInvariants:
    """Compute the invariant record, optionally cross-checked by reflectable search."""
    ind_r, convention = index_formula(e)
    lattice_rank = e.rank + e.nullity
    refl = ind_r + lattice_rank
    kt = twist_order(e)
    if kt != e.lacing ** e.spec.twist:
        raise AssertionError("twist order disagrees with lacing ** twist")
    ind_s = {"S": e.S.index}
    counts = {"S": e.S.coset_count}
    if e.spec.kind == "twisted":
        ind_s.update({"S1": e.spec.s1.index, "S2": e.spec.s2.index})
        counts.update({"S1": e.spec.s1.coset_count, "S2": e.spec.s2.coset_count})
    refl_search = refl_matches = None
    if oracle_window is not None:
        from .weyl import minimal_reflectable_size

        search = minimal_reflectable_size(e, oracle_window, max_size=refl + 1)
        refl_search = search.size
        refl_matches = search.size == refl
    return SystemInvariants(
        rank=e.rank,
        nullity=e.nullity,
        twist=e.spec.twist,
        twist_order=kt,
        lattice_rank=lattice_rank,
        ind_R=ind_r,
        refl_R=refl,
        convention=convention,
        ind_S=ind_s,
        coset_counts=counts,
        refl_search=refl_search,
        refl_matches=refl_matches,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the windowed axiom checks, with witnesses for failures."""

    window: int
    checks: dict

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self) -> dict:
        return {"window": self.window, "ok": self.ok, "checks": self.checks}


def finite_parts_connected(e: Ears, roots: Sequence[Root]) -> bool:
    """Is the non-orthogonality graph on these non-isotropic roots connected?

    The pairing reads only finite parts, and two roots with the same finite
    part pair to 2, so the search runs on the distinct finite parts.
    """
    table = e.finite.pairing_table
    todo = {e.finite.coord_index[r.finite] for r in roots}
    frontier = [todo.pop()] if todo else []
    while frontier:
        cur = frontier.pop()
        linked = {j for j in todo if table[cur][j]}
        todo -= linked
        frontier.extend(linked)
    return not todo


def verify_axioms(e: Ears, w: Window) -> AxiomReport:
    """Window-scale verification of the structural axioms.

    Checks: (a) the isotropic support equals the pairwise sums of S classes,
    (b) the S/L coupling identities on representatives, (c) unbroken root
    strings with d - u equal to the pairing, (d) connectedness of the
    non-orthogonality graph on non-isotropic window roots, (e) reducedness.
    """
    checks: dict = {}
    roots = enumerate_roots(e, w)
    noniso = [r for r in roots if r.finite is not None]

    failures = []
    rep_coords = [e.ambient_lattice.coords(rep) for rep in e.S.reps]
    for iso in e.window_iso(w):
        direct = parity(iso) in e.r0_keys
        brute = any(parity(vec_sub(iso, rep)) in e.S.class_keys for rep in rep_coords)
        if direct != brute:
            failures.append({
                "iso": list(e.ambient_lattice.from_coords(iso)),
                "class_based": direct,
                "pairwise": brute,
            })
    checks["isotropic_support"] = {"passed": not failures, "failures": failures[:5]}

    problems = check_compatibility(e)
    checks["semilattice_coupling"] = {"passed": not problems, "failures": problems[:5]}

    string_failures = []
    for alpha in noniso:
        steps = [(n, e.scale_root(n, alpha)) for n in range(-8, 9)]
        for beta in roots:
            members = {n for n, step in steps if e.is_root(e.add(beta, step))}
            d, u = -min(members), max(members)
            if members != set(range(-d, u + 1)) or d - u != e.pairing(beta, alpha):
                string_failures.append(
                    {"alpha": root_to_json(e, alpha), "beta": root_to_json(e, beta)}
                )
    checks["root_strings"] = {
        "passed": not string_failures,
        "pairs": len(noniso) * len(roots),
        "failures": string_failures[:5],
    }

    connected = finite_parts_connected(e, noniso)
    checks["indecomposable"] = {"passed": connected, "components_connected": connected}

    doubled = []
    for fin in e.finite.coords:
        twice = tuple(2 * x for x in fin)
        if twice in e.finite.coord_index:
            doubled.append(list(fin))
    for r in noniso:
        if e.is_root(e.scale_root(2, r)):
            doubled.append(root_to_json(e, r))
    checks["reduced"] = {"passed": not doubled, "failures": doubled[:5]}

    return AxiomReport(w.bound, checks)


def root_to_json(e: Ears, r: Root) -> dict:
    fin = None if r.finite is None else list(r.finite)
    return {"finite": fin, "iso": list(r.iso)}


def root_from_json(e: Ears, obj: dict) -> Root:
    """Inverse of root_to_json; a finite part must have one entry per simple root.

    Coordinates must be JSON integers: floats, strings and booleans are rejected.
    """
    fin = obj["finite"]
    if fin is None:
        fin = (0,) * e.rank
    elif len(fin) != e.rank:
        raise ValueError(
            f"finite part needs {e.rank} simple-root coordinates, got {len(fin)}"
        )
    return e.root_from_coords(
        tuple(json_int(x, "root coordinate") for x in tuple(fin) + tuple(obj["iso"]))
    )
