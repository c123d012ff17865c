"""Extended affine root systems built from a finite root system and semilattice data.

A system is the disjoint union of an isotropic part S + S and translated
copies of the finite short/long roots, with translation sets S and L coupled
by S + L = S and kS + L = L (k the lacing number).  Roots are pairs of integer
vectors: the finite part in simple-root coordinates and the isotropic part in
coordinates of a basis of the span of S.  `build_ears` alone reads a spec's
lattice bases and writes S and L in those coordinates; nothing after it
converts between ambient vectors and coordinates.  Membership is decided
intensionally from coset classes (mod 2 for S), never by point enumeration.
`Root`, `Window` and `AxiomReport` are defined in `base`, so the torus
checks use them without loading this module.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from functools import cached_property
from operator import add, mod
from typing import Hashable, Iterable, Iterator, Sequence

from .base import AxiomReport, IntVector, Root, Window, json_int, json_object, record
from .finite import FiniteRootSystem, FiniteType, build_finite
from .lattice import (
    IntLattice,
    Semilattice,
    det,
    parity,
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


# The fields each form of spec takes, with their JSON keys.
_FORMS = {
    "rank_one": {"s": "S"},
    "lattice": {"lattice": "lattice"},
    "twisted": {"s1": "S1", "s2": "S2"},
}


def _form(t: FiniteType) -> str:
    """The form of spec a finite type takes: A1 takes one semilattice `s`, a
    simply-laced type of rank >= 2 a `lattice`, and every other type the
    semilattices `s1` (rank = twist) and `s2` (rank = nullity - twist)."""
    if t.family == "A" and t.rank == 1:
        return "rank_one"
    return "lattice" if t.simply_laced else "twisted"


@record
class EarsSpec:
    """Construction data: finite type, nullity, twist, and semilattice components.

    The type decides which components are given (see `_form`); only the
    twisted form takes a nonzero twist.
    """

    type: FiniteType
    nullity: int
    twist: int = 0
    s: Semilattice | None = None
    lattice: IntLattice | None = None
    s1: Semilattice | None = None
    s2: Semilattice | None = None

    def __post_init__(self) -> None:
        if json_int(self.nullity, "nullity") < 0:
            raise ValueError("nullity must be >= 0")
        if not 0 <= json_int(self.twist, "twist") <= self.nullity:
            raise ValueError("twist must satisfy 0 <= t <= nullity")
        fields = _FORMS[self.kind]
        given = [f for form in _FORMS.values() for f in form if getattr(self, f) is not None]
        if given != list(fields):
            raise ValueError(f"type {self.type} takes {' and '.join(fields)}, got {given}")
        if self.twist and self.kind != "twisted":
            raise ValueError(f"type {self.type} has no twist")
        ranks = {"s": self.nullity, "lattice": self.nullity,
                 "s1": self.twist, "s2": self.nullity - self.twist}
        # the components that must be whole lattices
        full = {"B": ("s2",) if self.type.rank >= 3 else (), "C": ("s1",),
                "F": ("s1", "s2"), "G": ("s1", "s2")}.get(self.type.family, ())
        for f in fields:
            value = getattr(self, f)
            if value.dim != ranks[f]:
                raise ValueError(f"rank of {f} must be {ranks[f]}")
            if f in full and value.coset_count != 2 ** value.dim:
                raise ValueError(f"type {self.type} requires {f} to be a lattice")

    @property
    def kind(self) -> str:
        return _form(self.type)

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

    def to_json(self) -> dict:
        out: dict = {
            "type": self.type.family,
            "rank": self.type.rank,
            "nullity": self.nullity,
        }
        if self.kind == "twisted":
            out["twist"] = self.twist
        for f, key in _FORMS[self.kind].items():
            out[key] = getattr(self, f).to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "EarsSpec":
        """Read the keys of the type's form; any other key is rejected.  A
        twist is read in every form, so the constructor rejects a nonzero one
        outside the twisted form."""
        t = FiniteType(json_object(obj, "system spec")["type"], obj["rank"])
        kind = _form(t)
        keys = _FORMS[kind]
        json_object(obj, f"type {t}", ("type", "rank", "nullity", "twist", *keys.values()))
        parse = IntLattice.from_json if kind == "lattice" else Semilattice.from_json
        twist = obj["twist"] if kind == "twisted" else obj.get("twist", 0)
        return cls(t, obj["nullity"], twist, **{f: parse(obj[key]) for f, key in keys.items()})


def residue(iso: Sequence[int], q: Sequence[int]) -> IntVector:
    """iso mod q, coordinate by coordinate: the isotropic half of a class key."""
    return tuple(map(mod, iso, q))


@record
class Ears:
    """An extended affine root system with exact membership tests; S and L are
    semilattices in the coordinates of `Root.iso`, so `S.lattice` is Z^nullity."""

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

    @cached_property
    def r0_keys(self) -> frozenset[IntVector]:
        """Coset classes of the isotropic support S + S."""
        return sum_semilattices(self.S, self.S)

    @cached_property
    def zero_root(self) -> Root:
        return Root(None, (0,) * self.nullity)

    # -- membership -----------------------------------------------------

    def classify(self, finite_part: IntVector | None, iso: IntVector) -> RootClass:
        """Classify a candidate (finite part, isotropic part).

        The finite part is None (isotropic candidate) or a tuple of
        simple-root coordinates; the isotropic part is a tuple of coordinates
        in a basis of the span of S.  Coordinates are ints: a non-integral
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
            return RootClass.SHORT if key in self.S.class_index else RootClass.NOT_A_ROOT
        return RootClass.LONG if self._in_l(iso) else RootClass.NOT_A_ROOT

    @cached_property
    def _short_of(self) -> dict[IntVector, bool]:
        """Finite roots by simple-root coordinates: is the root short."""
        short = self.finite.short_coords
        return {c: c in short for c in self.finite.coords}

    @cached_property
    def period(self) -> IntVector:
        """The least q_j per isotropic coordinate such that whether (finite
        part, iso) is a root depends only on the finite part and
        `residue(iso, period)`; an entry may be odd.

        Membership reads S + S and S through the parity of iso, and L.  Let
        e_j be the least divisor of |det B_L| with e_j u_j in the span of L
        (e_j = 1 without L), u_j the j-th unit vector.  L is a union of
        cosets of twice its span, so 2e_j is a period of L, and a period d
        puts d u_j in L, so e_j divides d.  Hence q_j is e_j when a shift by
        e_j u_j keeps every set, and 2e_j otherwise: for an odd e_j, flipping
        bit j must map each parity set onto itself, and every representative
        of L moved by e_j u_j must stay in L.  No residue is listed.
        `b2_nu2_twist1` gets (2, 1), and L = 4Z under S = Z, which no system
        builds, gets 4.
        """
        units = IntLattice.standard(self.nullity).basis
        if self.L is None:
            least = (1,) * self.nullity
        else:
            span = self.L.lattice
            d = abs(det(span.basis))
            least = tuple(
                next(e for e in range(1, d + 1) if d % e == 0 and span.contains(vec_scale(e, u)))
                for u in units
            )

        def keeps(j: int, e: int) -> bool:
            if e % 2 and not all(k[:j] + (1 - k[j],) + k[j + 1:] in keys
                                 for keys in (self.r0_keys, self.S.class_index) for k in keys):
                return False
            return self.L is None or all(
                self.L.contains(vec_add(t, vec_scale(e, units[j]))) for t in self.L.reps
            )

        return tuple(e if keeps(j, e) else 2 * e for j, e in enumerate(least))

    @cached_property
    def _l_residues(self) -> dict[IntVector, bool]:
        return {}

    def _in_l(self, iso: IntVector) -> bool:
        if self.L is None:
            return False
        key = residue(iso, self.period)
        hit = self._l_residues.get(key)
        if hit is None:
            hit = self.L.contains(iso)
            self._l_residues[key] = hit
        return hit

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
        """Integer coordinates in the root-lattice basis (simple roots, then a basis of span S)."""
        fin = (0,) * self.rank if r.finite is None else r.finite
        return fin + r.iso

    def root_from_coords(self, coords: Sequence[int]) -> Root:
        """Inverse of root_coords; the result need not classify as a root."""
        coords = tuple(json_int(x, "root coordinate") for x in coords)
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


def _derive_semilattices(spec: EarsSpec) -> tuple[Semilattice, Semilattice | None]:
    """S and L in root coordinates, over Z^nullity: the one reader of a spec's bases.

    A twisted spec takes coordinates in the basis of S1, then that of S2, so
    S = S1 + Z^(nullity - t) and L = kZ^t + S2, t the twist; both list their
    representatives in product order, 0 first.
    """
    nu, t = spec.nullity, spec.twist
    if spec.kind == "lattice":
        return Semilattice.standard(nu), None
    if spec.kind == "rank_one":
        return Semilattice(IntLattice.standard(nu), _rep_coords(spec.s)), None
    k = spec.type.lacing
    s1, s2 = _rep_coords(spec.s1), _rep_coords(spec.s2)
    cube1, cube2 = Semilattice.standard(t).reps, Semilattice.standard(nu - t).reps
    span_l = IntLattice(tuple(vec_scale(k if i < t else 1, u)
                              for i, u in enumerate(IntLattice.standard(nu).basis)))
    s = Semilattice(IntLattice.standard(nu), tuple(r1 + w2 for r1 in s1 for w2 in cube2))
    l = Semilattice(span_l, tuple(vec_scale(k, w1) + r2 for w1 in cube1 for r2 in s2))
    return s, l


def _rep_coords(s: Semilattice) -> tuple[IntVector, ...]:
    """The representatives of s in coordinates of its lattice basis."""
    return tuple(s.lattice.coords(r) for r in s.reps)


def check_compatibility(e: Ears) -> list[str]:
    """Check S + L = S and kS + L = L on representatives; list the failures."""
    problems: list[str] = []
    if e.L is None:
        return problems
    k = e.lacing
    for j, unit in enumerate(IntLattice.standard(e.nullity).basis):
        if not e.L.lattice.contains(vec_scale(k, unit)):
            problems.append(f"k * e_{j} is not inside span of L")
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
    iso_list = list(w.points(e.nullity))
    keys = [parity(iso) for iso in iso_list]
    out = [Root(None, iso) for iso, key in zip(iso_list, keys) if key in e.r0_keys]
    in_s = [iso for iso, key in zip(iso_list, keys) if key in e.S.class_index]
    in_l = [iso for iso in iso_list if e._in_l(iso)]
    short = e.finite.short_coords
    for fin in e.finite.coords:
        out.extend(Root(fin, iso) for iso in (in_s if fin in short else in_l))
    return out


class Classes:
    """Items grouped by a class key that decides every check of a loop.

    A window loop decides each class, or each pair of classes, on its first
    item and weights the outcome by the class sizes.  Only the classes that
    fail are walked, in item order, to list witnesses, so the witnesses are
    the ones a loop over all items would list first.
    """

    def __init__(self, items: Sequence, keys: Sequence[Hashable]):
        self.items = items
        self.keys = keys
        sizes = Counter(keys)
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        # (key, first item, size) per class, in order of first item
        self.reps = [(k, items[first[k]], n) for k, n in sizes.items()]

    @classmethod
    def of_roots(cls, roots: Sequence[Root], q: IntVector | None) -> "Classes":
        """Roots keyed by finite part and `residue(iso, q)`; by the root itself
        when q is None."""
        if q is None:
            return cls(roots, roots)
        residues = {iso: residue(iso, q) for iso in {r.iso for r in roots}}
        ids: dict[tuple, int] = {}
        # classes numbered in order of first root: each key is hashed once
        return cls(roots, [ids.setdefault((r.finite, residues[r.iso]), len(ids)) for r in roots])

    @cached_property
    def members(self) -> dict[Hashable, list[int]]:
        """Positions of each class's items, ascending."""
        out: dict[Hashable, list[int]] = {}
        for i, k in enumerate(self.keys):
            out.setdefault(k, []).append(i)
        return out

    def positions(self, keys: Iterable[Hashable]) -> list[int]:
        """Positions of the items in the given classes, ascending."""
        return sorted(itertools.chain.from_iterable(self.members[k] for k in keys))

    def pairs(self, bad: dict[Hashable, dict]) -> Iterator[tuple[int, int, object]]:
        """(i, j, bad[key i][key j]) for every position pair of a failing class
        pair, in the order of a loop over i outside and j inside."""
        for i in self.positions(bad):
            row = bad[self.keys[i]]
            for j in self.positions(row):
                yield i, j, row[self.keys[j]]


def twist_order(e: Ears) -> int:
    """Order of the quotient of Z^nullity, the span of S in root coordinates,
    by the span of L: |det B_L| (1 when L is absent)."""
    if e.L is None:
        return 1
    return abs(det(e.L.lattice.basis))


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


def invariants(e: Ears) -> dict:
    """The invariant record `info` prints, from the index formula and the twist order."""
    ind_r, convention = index_formula(e)
    lattice_rank = e.rank + e.nullity
    kt = twist_order(e)
    if kt != e.lacing ** e.spec.twist:
        raise AssertionError("twist order disagrees with lacing ** twist")
    ind_s = {"S": e.S.index}
    counts = {"S": e.S.coset_count}
    if e.spec.kind == "twisted":
        ind_s.update({"S1": e.spec.s1.index, "S2": e.spec.s2.index})
        counts.update({"S1": e.spec.s1.coset_count, "S2": e.spec.s2.coset_count})
    return {
        "rank": e.rank,
        "nullity": e.nullity,
        "twist": e.spec.twist,
        "twist_order": kt,
        "lattice_rank": lattice_rank,
        "ind_R": ind_r,
        "refl_R": ind_r + lattice_rank,
        "convention": convention,
        "ind_S": ind_s,
        "coset_counts": counts,
    }


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
    The root strings run once per class pair of `e.period` (see `Classes`),
    and the isotropic support once per class of iso mod 2, which is all that
    check reads.
    """
    checks: dict = {}
    q = e.period
    roots = enumerate_roots(e, w)
    classes = Classes.of_roots(roots, q)
    noniso = [c for c in classes.reps if c[1].finite is not None]

    isos = list(w.points(e.nullity))
    points = Classes(isos, [parity(iso) for iso in isos])
    bad: dict = {}
    for k, iso, _ in points.reps:
        direct = parity(iso) in e.r0_keys
        brute = any(parity(vec_sub(iso, rep)) in e.S.class_index for rep in e.S.reps)
        if direct != brute:
            bad[k] = {"class_based": direct, "pairwise": brute}
    failures = [
        {"iso": list(points.items[i]), **bad[points.keys[i]]}
        for i in itertools.islice(points.positions(bad), 5)
    ]
    checks["isotropic_support"] = {"passed": not bad, "failures": failures}

    problems = check_compatibility(e)
    checks["semilattice_coupling"] = {"passed": not problems, "failures": problems[:5]}

    # beta + n alpha has finite part b + n a, which must lie in the finite
    # roots or be zero; a finite string has at most four roots, so |n| <= 3
    bad = {}
    for ka, alpha, _ in noniso:
        steps = [(n, e.scale_root(n, alpha)) for n in range(-3, 4)]
        for kb, beta, _ in classes.reps:
            members = {n for n, step in steps if e.is_root(e.add(beta, step))}
            d, u = -min(members), max(members)
            if members != set(range(-d, u + 1)) or d - u != e.pairing(beta, alpha):
                bad.setdefault(ka, {})[kb] = None
    checks["root_strings"] = {
        "passed": not bad,
        "pairs": sum(size for _, _, size in noniso) * len(roots),
        "failures": [
            {"alpha": root_to_json(e, roots[i]), "beta": root_to_json(e, roots[j])}
            for i, j, _ in itertools.islice(classes.pairs(bad), 5)
        ],
    }

    connected = finite_parts_connected(e, [r for _, r, _ in noniso])
    checks["indecomposable"] = {"passed": connected, "components_connected": connected}

    # 2r has finite part 2 r.finite, a root only if a finite root is doubled
    doubled = []
    for fin in e.finite.coords:
        twice = tuple(2 * x for x in fin)
        if twice in e.finite.coord_index:
            doubled.append(list(fin))
    checks["reduced"] = {"passed": not doubled, "failures": doubled[:5]}

    return AxiomReport(w.bound, checks, roots)


def root_to_json(e: Ears, r: Root) -> dict:
    fin = None if r.finite is None else list(r.finite)
    return {"finite": fin, "iso": list(r.iso)}


def root_from_json(e: Ears, obj: dict) -> Root:
    """Inverse of root_to_json; a finite part must have one entry per simple root.

    Coordinates must be JSON integers: floats, strings and booleans are rejected.
    """
    fin = json_object(obj, "root", ("finite", "iso"))["finite"]
    if fin is None:
        fin = (0,) * e.rank
    elif len(fin) != e.rank:
        raise ValueError(
            f"finite part needs {e.rank} simple-root coordinates, got {len(fin)}"
        )
    return e.root_from_coords(tuple(fin) + tuple(obj["iso"]))
