"""Reflections on roots, orbit closures, reflectable bases, and prefix decompositions.

All statements about reflection orbits on an infinite root system are made at
window scale: a closure is computed inside an enlarged window (bound + margin)
and reported inside the requested one, so Weyl words may exit and re-enter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections import deque
from typing import Sequence

from .lattice import IntVector, generates, parity, vec_add, vec_scale, vec_sub
from .system import Ears, Root, RootClass, Window, enumerate_roots


def _require_nonisotropic(e: Ears, base: Sequence[Root]) -> None:
    for r in base:
        cls = e.classify(r.finite, r.iso)
        if cls not in (RootClass.SHORT, RootClass.LONG):
            raise ValueError(f"base element {r} does not classify as a non-isotropic root")


def reflect(e: Ears, alpha: Root, beta: Root) -> Root:
    """Reflection of beta through the hyperplane of a non-isotropic root alpha.

    The bilinear form sees only finite parts (isotropic directions are null),
    so the isotropic coordinate moves by an integer multiple of alpha's.
    """
    if alpha.finite is None:
        raise ValueError("cannot reflect through an isotropic root")
    if beta.finite is None:
        return beta
    fin = e.finite
    ai = fin.coord_index[alpha.finite]
    bi = fin.coord_index[beta.finite]
    c = fin.pairing_table[bi][ai]
    new_fin = fin.coords[fin.reflect_table[ai][bi]]
    return Root(new_fin, vec_sub(beta.iso, vec_scale(c, alpha.iso)))


def orbit_closure(
    e: Ears, base: Sequence[Root], w: Window, margin: int | None = None
) -> set[Root]:
    """Fixed point of applying the base reflections to the base, inside a window.

    Work happens inside bound + margin (margin defaults to the bound itself);
    the result is the part inside the requested window.
    """
    _require_nonisotropic(e, base)
    if not base:
        raise ValueError("base must be nonempty")
    if margin is None:
        margin = w.bound
    work = Window(w.bound + margin)
    closed: set[Root] = {r for r in base if work.contains(r.iso)}
    frontier = list(closed)
    while frontier:
        fresh: list[Root] = []
        for b in base:
            for r in frontier:
                image = reflect(e, b, r)
                if image not in closed and work.contains(image.iso):
                    closed.add(image)
                    fresh.append(image)
        frontier = fresh
    return {r for r in closed if w.contains(r.iso)}


@dataclass(frozen=True)
class ReflectabilityReport:
    """Orbit coverage of a window; `roots`, the window roots, is not reported."""

    covered: bool
    missing: tuple[Root, ...]
    window: int
    roots: Sequence[Root] = field(default=(), repr=False, compare=False)


def check_reflectable(e: Ears, base: Sequence[Root], w: Window) -> ReflectabilityReport:
    """Does the reflection orbit of the base cover all non-isotropic window roots?"""
    orbit = orbit_closure(e, base, w)
    roots = enumerate_roots(e, w)
    target = [r for r in roots if r.finite is not None]
    missing = tuple(sorted((r for r in target if r not in orbit), key=e.sort_key))
    return ReflectabilityReport(not missing, missing, w.bound, roots)


@dataclass(frozen=True)
class MinimalBaseSearch:
    """Result of the brute-force minimal reflectable base search."""

    size: int | None
    base: tuple[Root, ...] | None
    max_size: int
    window: int
    candidates: int
    subsets_tested: int
    search_space: str

    @property
    def found(self) -> bool:
        return self.size is not None


def _candidate_pool(e: Ears, w: Window) -> list[Root]:
    """Non-isotropic roots whose isotropic part sits within sup-norm 1 of a coset rep."""
    shifts = list(itertools.product((-1, 0, 1), repeat=e.nullity))
    iso_pool: set[IntVector] = set()
    for semi in filter(None, (e.S, e.L)):
        for rep in semi.reps:
            for shift in shifts:
                iso_pool.add(vec_add(rep, shift))
    out: list[Root] = []
    for fin in e.finite.coords:
        for iso in iso_pool:
            r = Root(fin, iso)
            if e.is_root(r):
                out.append(r)
    out.sort(key=lambda r: (Window.norm(r.iso),) + e.sort_key(r))
    return out


def minimal_reflectable_size(e: Ears, w: Window, max_size: int) -> MinimalBaseSearch:
    """Smallest base size whose orbit covers the non-isotropic window roots.

    The candidate pool restricts isotropic parts to coset representatives plus
    shifts of sup-norm at most 1.  Subsets are pruned by two necessary
    conditions before any orbit is computed: the base must span the full root
    lattice (reflections stay inside the span), so it has rank + nullity
    elements or more; for type A1 the base must meet every coset class of S
    (A1 pairings are even, so reflections preserve the class of the isotropic
    part mod 2L), so it is drawn from the pool members in those classes and
    has one element per class or more.  A pool that does not span the lattice
    has no subset to test.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    full_pool = _candidate_pool(e, w)
    target = [r for r in enumerate_roots(e, w) if r.finite is not None]
    target_set = set(target)
    n = e.rank + e.nullity
    a1 = e.spec.type.family == "A" and e.rank == 1
    needed_classes = {parity(r.iso) for r in target}
    pool = [r for r in full_pool if parity(r.iso) in needed_classes] if a1 else full_pool
    found = None
    tested = 0
    sizes = range(max(n, len(needed_classes) if a1 else 0), max_size + 1)
    if generates([e.root_coords(r) for r in pool], n):
        for combo in itertools.chain.from_iterable(
            itertools.combinations(pool, size) for size in sizes
        ):
            if a1 and {parity(r.iso) for r in combo} != needed_classes:
                continue
            if not generates([e.root_coords(r) for r in combo], n):
                continue
            tested += 1
            if target_set <= orbit_closure(e, combo, w):
                found = combo
                break
    return MinimalBaseSearch(
        None if found is None else len(found), found, max_size, w.bound, len(full_pool), tested,
        "coset representatives plus shifts of sup-norm <= 1",
    )


@dataclass(frozen=True)
class Decomposition:
    """Signed base elements whose prefix sums all stay inside the root system."""

    terms: tuple[tuple[int, Root], ...]

    def total(self, e: Ears) -> Root:
        return (self.prefixes(e) or [e.zero_root])[-1]

    def prefixes(self, e: Ears) -> list[Root]:
        out = []
        acc = e.zero_root
        for sign, r in self.terms:
            acc = e.add(acc, e.scale_root(sign, r))
            out.append(acc)
        return out

    def verify(self, e: Ears, target: Root) -> bool:
        """Re-check the prefix property and the total, via classify alone."""
        walk = self.prefixes(e)
        return all(map(e.is_root, walk)) and (walk or [e.zero_root])[-1] == target


def decompose(e: Ears, target: Root, base: Sequence[Root], w: Window) -> Decomposition:
    """Shortest signed-base path to the target with all prefixes inside R.

    Breadth-first search over window roots with steps +b / -b for base
    elements b; ties are broken by the deterministic root order.  Raises when
    the target is unreachable (window too small, or base not reflectable).
    """
    table = decompose_all(e, base, w)
    if target not in table:
        raise ValueError(
            "target is not reachable inside the window; enlarge the window "
            "or check the base for reflectability"
        )
    return table[target]


def decompose_all(
    e: Ears, base: Sequence[Root], w: Window
) -> dict[Root, Decomposition]:
    """Shortest prefix decompositions for every root reachable inside the window."""
    _require_nonisotropic(e, base)
    if not base:
        raise ValueError("base must be nonempty")
    steps: list[tuple[int, Root]] = []
    for b in sorted(base, key=e.sort_key):
        steps.append((1, b))
        steps.append((-1, b))
    start = e.zero_root
    parent: dict[Root, tuple[Root, tuple[int, Root]] | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for sign, b in steps:
            nxt = e.add(node, e.scale_root(sign, b))
            if nxt in parent:
                continue
            if not w.contains(nxt.iso):
                continue
            if not e.is_root(nxt):
                continue
            parent[nxt] = (node, (sign, b))
            queue.append(nxt)
    out: dict[Root, Decomposition] = {}
    for node in parent:
        if node == start:
            continue
        terms: list[tuple[int, Root]] = []
        cur = node
        while parent[cur] is not None:
            prev, step = parent[cur]
            terms.append(step)
            cur = prev
        out[node] = Decomposition(tuple(reversed(terms)))
    return out
