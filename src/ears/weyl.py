"""Reflections on roots, orbit closures, reflectable bases, and prefix decompositions.

All statements about reflection orbits on an infinite root system are made at
window scale: a closure is computed inside an enlarged window (bound + margin)
and reported inside the requested one, so Weyl words may exit and re-enter.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import sub
from typing import Iterator, Sequence

from .base import IntVector, Root, Window, field, record
from .lattice import generates, parity, vec_add, vec_scale
from .system import Ears, RootClass, enumerate_roots


def _require_nonisotropic(e: Ears, base: Sequence[Root]) -> None:
    """A base must be nonempty, and each of its elements a non-isotropic root."""
    for r in base:
        cls = e.classify(r.finite, r.iso)
        if cls not in (RootClass.SHORT, RootClass.LONG):
            raise ValueError(f"base element {r} does not classify as a non-isotropic root")
    if not base:
        raise ValueError("base must be nonempty")


def orbit_closure(
    e: Ears, base: Sequence[Root], w: Window, margin: int | None = None
) -> set[Root]:
    """Fixed point of applying the base reflections to the base, inside a window.

    Work happens inside bound + margin (margin defaults to the bound itself);
    the result is the part inside the requested window.  Each base root gets
    one table before the loop, from a finite part to its reflected finite part
    and the isotropic shift c * alpha.iso (the form sees only finite parts,
    so a reflection moves the isotropic part by a multiple of alpha's), so a
    reflection in the loop is one lookup and one subtraction.  Every root of the closure is
    non-isotropic, since the base is.
    """
    _require_nonisotropic(e, base)
    if margin is None:
        margin = w.bound
    work = Window(w.bound + margin)
    fin = e.finite
    tables = []
    for alpha in base:
        ai = fin.coord_index[alpha.finite]
        tables.append({
            beta: (fin.coords[fin.reflect_table[ai][bi]],
                   vec_scale(fin.pairing_table[bi][ai], alpha.iso))
            for bi, beta in enumerate(fin.coords)
        })
    closed: set[Root] = {r for r in base if work.contains(r.iso)}
    frontier = list(closed)
    while frontier:
        fresh: list[Root] = []
        for table in tables:
            for r in frontier:
                new_fin, shift = table[r.finite]
                image = Root(new_fin, tuple(map(sub, r.iso, shift)))
                if image not in closed and work.contains(image.iso):
                    closed.add(image)
                    fresh.append(image)
        frontier = fresh
    return {r for r in closed if w.contains(r.iso)}


@record
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


@record
class MinimalBaseSearch:
    """Result of the brute-force minimal reflectable base search."""

    size: int | None
    base: tuple[Root, ...] | None
    max_size: int
    window: int
    candidates: int
    subsets_tested: int
    search_space: str


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


def _subsets(pool: list[Root], classes: list, needed: set,
             sizes: range) -> Iterator[tuple[Root, ...]]:
    """Each size's subsets of the pool in lexicographic order of index, less every
    prefix whose missing needed classes (pool[i] meets classes[i]) outnumber its free places."""

    def walk(start: int, size: int, prefix: tuple, missing: frozenset) -> Iterator[tuple]:
        free = size - len(prefix)
        if len(missing) > free:
            return
        if not free:
            yield prefix
            return
        for i in range(start, len(pool) - free + 1):
            yield from walk(i + 1, size, prefix + (pool[i],), missing - {classes[i]})

    for size in sizes:
        yield from walk(0, size, (), frozenset(needed))


def minimal_reflectable_size(e: Ears, w: Window, max_size: int) -> MinimalBaseSearch:
    """Smallest base size whose orbit covers the non-isotropic window roots.

    The candidate pool restricts isotropic parts to coset representatives plus
    shifts of sup-norm at most 1.  A base spans the root lattice (reflections
    stay inside the span), so it has rank + nullity elements or more.  A root
    that pairs evenly with every root (A1's, and the long roots of B2 and C)
    keeps its length and its isotropic part mod 2 under reflection, so a base
    meets each class mod 2 of the even window roots with an even element (one
    root more than there are classes when the pool's even roots do not span);
    other even candidates are dropped.  Nothing is tested, or spanned, when
    no size is in range or the pool does not span the lattice.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    full_pool = _candidate_pool(e, w)
    target = {r for r in enumerate_roots(e, w) if r.finite is not None}
    n = e.rank + e.nullity
    fin = e.finite
    even = {c for c, row in zip(fin.coords, fin.pairing_table) if not any(p & 1 for p in row)}
    needed = {parity(r.iso) for r in target if r.finite in even}
    pool = [r for r in full_pool if r.finite not in even or parity(r.iso) in needed]
    classes = [parity(r.iso) if r.finite in even else None for r in pool]
    even_rows = [e.root_coords(r) for r in pool if r.finite in even]
    smallest = max(n, len(needed))
    if smallest <= max_size and smallest == len(needed) and not generates(even_rows, n):
        smallest += 1  # a base of even roots alone would not span the lattice
    found = None
    tested = 0
    if smallest <= max_size and generates([e.root_coords(r) for r in pool], n):
        for combo in _subsets(pool, classes, needed, range(smallest, max_size + 1)):
            if not generates([e.root_coords(r) for r in combo], n):
                continue
            tested += 1
            if target <= orbit_closure(e, combo, w):
                found = combo
                break
    return MinimalBaseSearch(
        None if found is None else len(found), found, max_size, w.bound, len(full_pool), tested,
        "coset representatives plus shifts of sup-norm <= 1",
    )


@record
class Decomposition:
    """Signed base elements whose prefix sums all stay inside the root system."""

    terms: tuple[tuple[int, Root], ...]

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
    """Shortest prefix decompositions for every root reachable inside the window.

    Breadth-first from the zero root, which maps to the empty decomposition;
    the 2 * |base| signed steps are scaled once, and a root's decomposition is
    that of the root it was first reached from plus the step taken.  A
    candidate outside the window or the root system is tested once.
    """
    _require_nonisotropic(e, base)
    moves = [
        ((sign, b), e.scale_root(sign, b))
        for b in sorted(base, key=e.sort_key) for sign in (1, -1)
    ]
    start = e.zero_root
    out = {start: Decomposition(())}
    rejected: set[Root] = set()
    queue = deque([start])
    while queue:
        node = queue.popleft()
        terms = out[node].terms
        for step, move in moves:
            nxt = e.add(node, move)
            if nxt in out or nxt in rejected:
                continue
            if not (w.contains(nxt.iso) and e.is_root(nxt)):
                rejected.add(nxt)
                continue
            out[nxt] = Decomposition(terms + (step,))
            queue.append(nxt)
    return out
