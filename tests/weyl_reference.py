"""The extend path's loops before it did each piece of work once, kept as test oracles.

`reflect` reflects one root through another from the finite tables, and
`orbit_closure_by_reflect` applies it to every (base root, frontier root)
pair, where `weyl.orbit_closure` reads a per-base-root table.
`decompose_all_by_bfs` scales each signed step at every node and rebuilds
each decomposition by walking its parents; it leaves the zero root, where the
search starts, out of the result.  `extend_ind_zero_by_prefixes` telescopes
every prefix of every decomposition from the zero root, where
`characters.extend_ind_zero` checks each prefix once.  The tests compare the
results, and the error messages, of the two versions.
"""

from collections import deque

from ears.base import Root, Window
from ears.characters import Character, LatticeHomRule
from ears.lattice import vec_scale, vec_sub
from ears.system import index_formula
from ears.weyl import Decomposition, _require_nonisotropic, check_reflectable


def reflect(e, alpha, beta):
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


def orbit_closure_by_reflect(e, base, w, margin=None):
    _require_nonisotropic(e, base)
    if not base:
        raise ValueError("base must be nonempty")
    if margin is None:
        margin = w.bound
    work = Window(w.bound + margin)
    closed = {r for r in base if work.contains(r.iso)}
    frontier = list(closed)
    while frontier:
        fresh = []
        for b in base:
            for r in frontier:
                image = reflect(e, b, r)
                if image not in closed and work.contains(image.iso):
                    closed.add(image)
                    fresh.append(image)
        frontier = fresh
    return {r for r in closed if w.contains(r.iso)}


def decompose_all_by_bfs(e, base, w):
    _require_nonisotropic(e, base)
    if not base:
        raise ValueError("base must be nonempty")
    steps = []
    for b in sorted(base, key=e.sort_key):
        steps.append((1, b))
        steps.append((-1, b))
    start = e.zero_root
    parent = {start: None}
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
    out = {}
    for node in parent:
        if node == start:
            continue
        terms = []
        cur = node
        while parent[cur] is not None:
            prev, step = parent[cur]
            terms.append(step)
            cur = prev
        out[node] = Decomposition(tuple(reversed(terms)))
    return out


def extend_ind_zero_by_prefixes(c, base, w):
    e = c.ears
    m = c.modulus
    ind_r, _ = index_formula(e)
    if ind_r != 0:
        raise ValueError(f"system has index {ind_r}; constructive extension needs 0")
    n = e.rank + e.nullity
    if len(base) != n:
        raise ValueError("base must have rank + nullity elements")
    coords = tuple(e.root_coords(b) for b in base)
    values = tuple(c.eval(b).exponent for b in base)
    hom = Character(e, m, LatticeHomRule(coords, values))
    cover = check_reflectable(e, base, w)
    if not cover.covered:
        raise ValueError("base reflections do not cover the window")
    decs = decompose_all_by_bfs(e, base, w)
    for r in cover.roots:
        if r.finite is not None:
            dec = decs.get(r)
            if dec is None:
                raise ValueError(f"cannot decompose {r} inside the window")
            acc = 0
            for (sign, b), prefix in zip(dec.terms, dec.prefixes(e)):
                acc = (acc + c._exponent(e.scale_root(sign, b))) % m
                if c._exponent(prefix) != acc:
                    raise ValueError(
                        f"telescoping failed at prefix {prefix}: the character is "
                        "not multiplicative along the decomposition"
                    )
        if hom._exponent(r) != c._exponent(r):
            raise ValueError(
                f"extension disagrees with the character at {r}; the data is "
                "not index-zero consistent or the window is too small"
            )
    return hom
