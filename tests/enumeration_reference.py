"""Enumerating window loops kept as test oracles for the class-quotient checks.

The package decides each window check once per class of roots (finite part,
isotropic coordinates mod a period) and weights the outcome by the class
sizes.  These are the loops it replaced: they visit every window root, every
window pair and every window point, and read the exponent with
`Character._exponent` on each root.  The tests compare the two reports.

`minimal_reflectable_size_by_subsets` is the minimal-base search before it
pruned its pool: it walks every subset of the whole candidate pool.

`index_of_sublattice` is the twist order before it became a ratio of
covolumes: the coordinates of each sublattice basis vector in the lattice
basis, then the absolute determinant of that coordinate matrix.
"""

import itertools

from ears.characters import CharacterCheckReport, TableRule
from ears.lattice import det, generates, parity, vec_sub
from ears.system import enumerate_roots, root_to_json
from ears.weyl import MinimalBaseSearch, _candidate_pool, orbit_closure


def verify_by_pairs(c, w, core_only):
    """Multiplicativity over every window pair (`verify_character` and
    `verify_core_character`)."""
    e = c.ears
    m = c.modulus
    roots = enumerate_roots(e, w)
    exps = {r: c._exponent(r) for r in roots}
    firsts = [r for r in roots if r.finite is not None] if core_only else roots
    table_bound = c.rule.window if isinstance(c.rule, TableRule) else None
    checked = skipped = 0
    add_failures = []
    for alpha in firsts:
        ea = exps[alpha]
        for beta in roots:
            total = e.add(alpha, beta)
            et = exps.get(total)
            if et is None:
                # not a window root: outside the window, or no root at all
                if not e.is_root(total):
                    continue
                if table_bound is not None:
                    skipped += 1
                    continue
                et = c._exponent(total)
            checked += 1
            if (ea + exps[beta] - et) % m:
                add_failures.append(
                    {
                        "alpha": root_to_json(e, alpha),
                        "beta": root_to_json(e, beta),
                        "lhs": (ea + exps[beta]) % m,
                        "rhs": et,
                    }
                )
    inv_failures = []
    for r in roots:
        if (exps[r] + exps[e.neg(r)]) % m:
            inv_failures.append({"root": root_to_json(e, r), "exponent": exps[r]})
    return CharacterCheckReport(
        "core" if core_only else "full",
        w.bound,
        checked,
        skipped,
        tuple(add_failures),
        tuple(inv_failures),
    )


def square_shift_by_pairs(c, w):
    """`verify_square_shift_identity` over every (isotropic, non-isotropic) pair."""
    e = c.ears
    m = c.modulus
    roots = enumerate_roots(e, w)
    iso_roots = [r for r in roots if r.finite is None]
    noniso = [r for r in roots if r.finite is not None]
    table = c.rule.box if isinstance(c.rule, TableRule) else None
    checked = 0
    failures = []
    for sigma in iso_roots:
        for alpha in noniso:
            plus = e.add(alpha, sigma)
            minus = e.add(alpha, e.neg(sigma))
            if not (e.is_root(plus) and e.is_root(minus)):
                continue
            if table is not None and not (
                table.contains(plus.iso) and table.contains(minus.iso)
            ):
                continue
            lhs = 2 * c._exponent(alpha)
            rhs = c._exponent(plus) + c._exponent(minus)
            checked += 1
            if (lhs - rhs) % m:
                failures.append(
                    {
                        "alpha": root_to_json(e, alpha),
                        "sigma": root_to_json(e, sigma),
                    }
                )
    return {"checked": checked, "failures": failures[:5], "ok": not failures}


def axiom_window_checks(e, w):
    """The three window loops of `verify_axioms`: isotropic support per
    window point, root strings per window pair, reducedness per root."""
    checks = {}
    roots = enumerate_roots(e, w)
    noniso = [r for r in roots if r.finite is not None]

    failures = []
    for iso in w.points(e.nullity):
        direct = parity(iso) in e.r0_keys
        brute = any(parity(vec_sub(iso, rep)) in e.S.class_index for rep in e.S.reps)
        if direct != brute:
            failures.append({
                "iso": list(iso),
                "class_based": direct,
                "pairwise": brute,
            })
    checks["isotropic_support"] = {"passed": not failures, "failures": failures[:5]}

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

    doubled = []
    for fin in e.finite.coords:
        twice = tuple(2 * x for x in fin)
        if twice in e.finite.coord_index:
            doubled.append(list(fin))
    for r in noniso:
        if e.is_root(e.scale_root(2, r)):
            doubled.append(root_to_json(e, r))
    checks["reduced"] = {"passed": not doubled, "failures": doubled[:5]}
    return checks


def minimal_reflectable_size_by_subsets(e, w, max_size):
    """`minimal_reflectable_size` over every subset of the unfiltered pool."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    pool = _candidate_pool(e, w)
    target = [r for r in enumerate_roots(e, w) if r.finite is not None]
    target_set = set(target)
    n = e.rank + e.nullity
    rank_floor = n if generates([e.root_coords(r) for r in target], n) else 1
    a1 = e.spec.type.family == "A" and e.rank == 1
    needed_classes = {parity(r.iso) for r in target} if a1 else set()
    tested = 0
    for size in range(1, max_size + 1):
        if size < rank_floor:
            continue
        for combo in itertools.combinations(pool, size):
            if a1 and {parity(r.iso) for r in combo} != needed_classes:
                continue
            if not generates([e.root_coords(r) for r in combo], n):
                continue
            tested += 1
            orbit = orbit_closure(e, combo, w)
            if target_set <= orbit:
                return MinimalBaseSearch(
                    size, combo, max_size, w.bound, len(pool), tested,
                    "coset representatives plus shifts of sup-norm <= 1",
                )
    return MinimalBaseSearch(
        None, None, max_size, w.bound, len(pool), tested,
        "coset representatives plus shifts of sup-norm <= 1",
    )


def index_of_sublattice(lat, sub):
    """Group index [lat : sub] for a full-rank sublattice."""
    cols = []
    for j in range(lat.dim):
        c = lat.coords(tuple(sub.basis[i][j] for i in range(lat.dim)))
        if c is None:
            raise ValueError("not a sublattice")
        cols.append(c)
    return abs(det(tuple(zip(*cols)))) if lat.dim else 1
