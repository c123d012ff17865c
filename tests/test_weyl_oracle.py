"""The extend path against its old loops (`weyl_reference`).

`orbit_closure` must give the orbit that one `reflect` per pair gives,
`decompose_all` the BFS dictionary plus the zero root's empty decomposition,
and `extend_ind_zero` the homomorphism, or the `ValueError` text, of
telescoping every prefix from the zero root.  The systems are index-zero:
affine A1, A2 and A3 at nullity 1 and 2, and B2 untwisted.
"""

from functools import cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import weyl_reference as ref
from ears.base import Window
from ears.characters import Character, TableRule, extend_ind_zero, standard_hom_character
from ears.finite import FiniteType
from ears.lattice import Semilattice
from ears.system import Ears, EarsSpec, build_ears, enumerate_roots
from ears.weyl import Decomposition, decompose_all, orbit_closure

SPECS = {
    "affine_a1": lambda: EarsSpec.rank_one(1, Semilattice.standard(1)),
    "a2_nu1": lambda: EarsSpec.simply_laced(FiniteType("A", 2), 1),
    "a2_nu2": lambda: EarsSpec.simply_laced(FiniteType("A", 2), 2),
    "a3_nu1": lambda: EarsSpec.simply_laced(FiniteType("A", 3), 1),
    "a3_nu2": lambda: EarsSpec.simply_laced(FiniteType("A", 3), 2),
    "b2_untwisted": lambda: EarsSpec(
        FiniteType("B", 2), 1, 0, s1=Semilattice.standard(0), s2=Semilattice.standard(1)
    ),
}


@cache
def system(name: str) -> Ears:
    return build_ears(SPECS[name]())


def reflectable_base(e, shift=0):
    """Simple roots, then alpha_1 + delta_j; with a shift, the simple roots
    and alpha_1 + delta_1 move by shift * delta_1 (still unimodular)."""
    n = e.rank + e.nullity
    rows = [[int(i == j) for i in range(n)] for j in range(e.rank)]
    for j in range(e.nullity):
        rows.append([int(i in (0, e.rank + j)) for i in range(n)])
    for row in rows[: e.rank + 1]:
        row[e.rank] += shift
    return [e.root_from_coords(row) for row in rows]


def outcome(extend, c, base, w):
    try:
        return "ok", extend(c, base, w)._std_values
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def window_bases(draw):
    """A system, a window, and either its reflectable base or window roots."""
    e = system(draw(st.sampled_from(sorted(SPECS))))
    w = Window(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        base = reflectable_base(e)
    else:
        pool = [r for r in enumerate_roots(e, w) if r.finite is not None]
        base = draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=e.rank + e.nullity + 1, unique=True))
    return e, w, draw(st.permutations(base))


@settings(max_examples=60, deadline=None)
@given(window_bases(), st.data())
def test_orbit_closure_matches_reflect_oracle(case, data):
    e, w, base = case
    margin = data.draw(st.integers(0, w.bound), label="margin")
    assert orbit_closure(e, base, w, margin) == ref.orbit_closure_by_reflect(e, base, w, margin)


@settings(max_examples=60, deadline=None)
@given(window_bases())
def test_decompose_all_matches_bfs_oracle(case):
    e, w, base = case
    got = list(decompose_all(e, base, w).items())
    assert got[0] == (e.zero_root, Decomposition(()))
    assert got[1:] == list(ref.decompose_all_by_bfs(e, base, w).items())


CORRUPTIONS = (None, "exponent", "drop", "step", "uncovered")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_extend_matches_prefix_oracle(data):
    """Same `_std_values`, or the same error text, for a table restriction of
    a homomorphism and for the table with one corruption."""
    e = system(data.draw(st.sampled_from(sorted(SPECS)), label="system"))
    w = Window(data.draw(st.integers(1, 3), label="window"))
    m = data.draw(st.integers(2, 4), label="modulus")
    values = [data.draw(st.integers(0, m - 1)) for _ in range(e.rank + e.nullity)]
    hom = standard_hom_character(e, values, m)
    corruption = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    shift, table_window = 0, w.bound
    if corruption == "uncovered":
        # the table reaches the moved base, whose reflections may miss window roots
        shift = data.draw(st.integers(1, w.bound), label="shift")
        table_window = w.bound + shift + 1
    base = [r if data.draw(st.booleans()) else e.neg(r) for r in reflectable_base(e, shift)]
    base = data.draw(st.permutations(base), label="base")
    entries = [(r, hom.eval(r).exponent) for r in enumerate_roots(e, Window(table_window))]
    if corruption in ("exponent", "step"):
        if corruption == "exponent":
            i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        else:
            sign = data.draw(st.sampled_from((1, -1)), label="sign")
            step = e.scale_root(sign, data.draw(st.sampled_from(base), label="step"))
            i = [r for r, _ in entries].index(step)
        root, x = entries[i]
        entries[i] = (root, x + data.draw(st.integers(1, m - 1), label="delta"))
    elif corruption == "drop":
        del entries[data.draw(st.integers(0, len(entries) - 1), label="entry")]
    table = Character(e, m, TableRule(table_window, tuple(entries)))
    got = outcome(extend_ind_zero, table, base, w)
    event(f"{corruption}: {got[0]}")
    assert got == outcome(ref.extend_ind_zero_by_prefixes, table, base, w)


@pytest.mark.parametrize("name", ["affine_a1", "b2_untwisted"])
def test_uncovering_base_raises_as_oracle(name):
    """The moved base of the `uncovered` corruption misses window-1 roots here."""
    e = system(name)
    hom = standard_hom_character(e, [1] * (e.rank + e.nullity), 2)
    entries = tuple((r, hom.eval(r).exponent) for r in enumerate_roots(e, Window(3)))
    table = Character(e, 2, TableRule(3, entries))
    base = reflectable_base(e, 1)
    expected = ("error", "base reflections do not cover the window")
    assert outcome(extend_ind_zero, table, base, Window(1)) == expected
    assert outcome(ref.extend_ind_zero_by_prefixes, table, base, Window(1)) == expected


def test_extend_does_each_piece_of_work_once(monkeypatch):
    """At A3, nullity 2, window 3: 2 * |base| scalings in `decompose_all`, and each root's exponent read at most once as a prefix,
    once as a signed base step and, when isotropic, once for agreement."""
    e = system("a3_nu2")
    w = Window(3)
    hom = standard_hom_character(e, [1, 2, 3, 0, 1], 4)
    table = Character(e, 4, TableRule(3, tuple(
        (r, hom.eval(r).exponent) for r in enumerate_roots(e, w)
    )))
    base = reflectable_base(e)
    calls = {"scale_root": 0}
    reads: dict = {}
    scale_root, exponent = Ears.scale_root, Character._exponent

    def counted_scale_root(self, c, r):
        calls["scale_root"] += 1
        return scale_root(self, c, r)

    def counted_exponent(self, r):
        if self is table:
            reads[r] = reads.get(r, 0) + 1
        return exponent(self, r)

    monkeypatch.setattr(Ears, "scale_root", counted_scale_root)
    decompose_all(e, base, w)
    assert calls["scale_root"] == 2 * len(base)
    monkeypatch.setattr(Character, "_exponent", counted_exponent)
    assert extend_ind_zero(table, base, w)._std_values == hom._std_values
    steps = {e.scale_root(sign, b) for b in base for sign in (1, -1)}
    assert reads and all(
        n <= 1 + (r in steps) + (r.finite is None) for r, n in reads.items()
    )
    assert len(reads) == len(enumerate_roots(e, w))
