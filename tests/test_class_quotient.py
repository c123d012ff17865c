"""The class-quotient window checks against the enumerating loops they replaced.

`verify_character`, `verify_core_character`, `verify_square_shift_identity`
and the window loops of `verify_axioms` decide each check once per class of
roots and weight it by the class sizes.  `enumeration_reference` keeps the
loops that visit every window pair; both must give the same reports, counts
and witnesses alike.
"""

import itertools
from dataclasses import dataclass
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import enumeration_reference as ref
from conftest import SPEC_DIR, load_spec_file
from fraction_reference import ambient_model
from ears.cli import main
from ears.characters import (
    A1CosetRule,
    Character,
    LatticeHomRule,
    TableRule,
    standard_hom_character,
    verify_character,
    verify_core_character,
    verify_square_shift_identity,
)
from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice
from ears.system import Ears, EarsSpec, Root, Window, build_ears, enumerate_roots, verify_axioms

LATTICES = {
    1: [((1,),), ((2,),), ((3,),)],
    2: [((1, 0), (0, 1)), ((1, 1), (0, 2)), ((2, 1), (1, 3))],
    3: [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 2, 0), (0, 0, 1))],
}
MAX_ROOT_SLOTS = 150  # (finite roots + 1) x window points, to keep the oracle fast


@st.composite
def semilattices(draw, dim, full=False):
    """A semilattice over a drawn lattice: all cosets, or the unit classes plus some more."""
    lattice = IntLattice(draw(st.sampled_from(LATTICES[dim]))) if dim else IntLattice(())
    if full or dim == 0 or draw(st.booleans()):
        return Semilattice.full(lattice)
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    others = [k for k in _keys(dim) if sum(k) > 1]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    reps = [(0,) * dim] + [lattice.from_coords(k) for k in units + extra]
    return Semilattice(lattice, reps)


def _keys(dim):
    return [tuple((n >> i) & 1 for i in range(dim)) for n in range(1, 2 ** dim)]


@st.composite
def systems(draw):
    """Rank-one, simply-laced and twisted systems of nullity 1 to 3."""
    kind = draw(st.sampled_from(["rank_one", "lattice", "twisted"]))
    if kind == "rank_one":
        nullity = draw(st.integers(1, 3))
        return build_ears(EarsSpec.rank_one(nullity, draw(semilattices(nullity))))
    if kind == "lattice":
        nullity = draw(st.integers(1, 2))
        lattice = IntLattice(draw(st.sampled_from(LATTICES[nullity])))
        return build_ears(EarsSpec.simply_laced(FiniteType("A", 2), nullity, lattice))
    family = draw(st.sampled_from(["B", "G"]))
    nullity = draw(st.integers(1, 2))
    twist = draw(st.integers(0, nullity))
    full = family == "G"
    s1 = draw(semilattices(twist, full=full))
    s2 = draw(semilattices(nullity - twist, full=full))
    return build_ears(EarsSpec(FiniteType(family, 2), nullity, twist, s1=s1, s2=s2))


def windows_for(e):
    """The windows 0 to 2 small enough for the oracle, the largest drawn most."""
    slots = len(e.finite.coords) + 1
    fits = [w for w in (0, 1, 2) if slots * (2 * w + 1) ** e.nullity <= MAX_ROOT_SLOTS]
    return st.sampled_from(fits + [fits[-1]] * 2)


def class_period(e, m):
    """q from its definition: S and S + S read mod 2, L mod `period`, a hom mod m."""
    return tuple(lcm(2, q, m) for q in e.period)


@dataclass(frozen=True)
class Shifted(Character):
    """A character with 1 added to the exponent on one whole class of roots.

    With `period` set, the class is (finite part, iso mod period); with None
    it is the single root `target`.  Such a character fails additivity, and
    usually the inverse rule, on many pairs, so witnesses get listed.
    """

    target: Root | None = None
    period: tuple[int, ...] | None = None

    def _key(self, r):
        if self.period is None:
            return r
        return Root(r.finite, tuple(x % q for x, q in zip(r.iso, self.period)))

    def _exponent(self, r):
        x = super()._exponent(r)
        return (x + 1) % self.modulus if self._key(r) == self.target else x


@st.composite
def sum_free_rank_one(draw):
    """A rank-one system whose coset rule is a character: S holds the unit classes."""
    nullity = draw(st.integers(1, 3))
    lattice = IntLattice(draw(st.sampled_from(LATTICES[nullity])))
    units = [tuple(int(i == j) for i in range(nullity)) for j in range(nullity)]
    reps = [(0,) * nullity] + [lattice.from_coords(k) for k in units]
    return build_ears(EarsSpec.rank_one(nullity, Semilattice(lattice, reps)))


@st.composite
def cases(draw):
    """(character, window): a hom, coset or table rule, shifted on one class or not."""
    kind = draw(st.sampled_from(["hom", "table", "a1coset"]))
    e = draw(sum_free_rank_one() if kind == "a1coset" else systems())
    w = Window(draw(windows_for(e)))
    n = e.rank + e.nullity
    if kind == "a1coset":
        base, q = Character(e, 2, A1CosetRule()), class_period(e, 2)
    else:
        m = draw(st.sampled_from([2, 3, 4]))
        values = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        base, q = standard_hom_character(e, values, m), class_period(e, m)
    if kind == "table":
        bound = w.bound + draw(st.integers(0, 1))
        entries = tuple((r, base._exponent(r)) for r in enumerate_roots(e, Window(bound)))
        base, q = Character(e, base.modulus, TableRule(bound, entries)), None
    event(f"{e.spec.kind} {kind} window {w.bound}")
    if draw(st.integers(0, 3)) == 0:
        return base, w
    target = draw(st.sampled_from(enumerate_roots(e, w)))
    shifted = Shifted(e, base.modulus, base.rule, period=q)
    return Shifted(e, base.modulus, base.rule, shifted._key(target), q), w


@settings(max_examples=100, deadline=None)
@given(cases())
def test_character_checks_match_pair_loops(case):
    c, w = case
    for core_only, verify in ((False, verify_character), (True, verify_core_character)):
        got, want = verify(c, w), ref.verify_by_pairs(c, w, core_only)
        assert got.to_json() == want.to_json()
        assert got.additivity_failures == want.additivity_failures[:5]
        assert got.inverse_failures == want.inverse_failures
    assert verify_square_shift_identity(c, w) == ref.square_shift_by_pairs(c, w)
    if not verify_character(c, w).ok:
        event("witnesses listed")


@settings(max_examples=30, deadline=None)
@given(systems(), st.data())
def test_axiom_checks_match_window_loops(e, data):
    w = Window(data.draw(windows_for(e)))
    checks = verify_axioms(e, w).checks
    assert {k: checks[k] for k in ref.axiom_window_checks(e, w)} == ref.axiom_window_checks(e, w)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_semilattices_lie_in_root_coordinates(e):
    """S is written over Z^nullity, the coordinates every root's iso uses."""
    assert e.S.lattice == IntLattice.standard(e.nullity)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_period_memo_agrees_with_l(e):
    """`_in_l` caches by iso mod `period`: it must agree with L itself."""
    if e.L is None:
        return
    ambient, _, l = ambient_model(e.spec)
    for iso in itertools.product(range(-6, 7), repeat=e.nullity):
        assert e._in_l(iso) == l.contains(ambient.from_coords(iso))


def _l_is_4z(b2_affine):
    """B2 with S = Z and L = 4Z: k Z is not inside the span of L, so no built system."""
    return Ears(b2_affine.spec, b2_affine.finite, b2_affine.S,
                Semilattice.full(IntLattice(((4,),))))


def test_period_without_compatibility(b2_affine):
    bad = _l_is_4z(b2_affine)
    assert bad.period == (8,)
    for x in range(-20, 21):
        iso = (x,)
        assert bad._in_l(iso) == bad.L.contains(iso)


def assert_shift_invariant(e):
    """Moving coordinate j by period[j] never changes `classify`, for any finite part."""
    assert len(e.period) == e.nullity and all(q % 2 == 0 for q in e.period)
    for iso in itertools.product(range(-3, 4), repeat=e.nullity):
        for j, q in enumerate(e.period):
            moved = iso[:j] + (iso[j] + q,) + iso[j + 1:]
            for fin in (None, *e.finite.coords):
                assert e.classify(fin, iso) == e.classify(fin, moved)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_period_is_a_period_per_coordinate(e):
    assert_shift_invariant(e)


def test_period_is_a_period_without_compatibility(b2_affine):
    assert_shift_invariant(_l_is_4z(b2_affine))


def test_twisted_period_per_coordinate(monkeypatch, capsys):
    """Only the twisted coordinate pays 2k, so `info` classifies fewer sums."""
    spec = str(SPEC_DIR / "b2_nu2_twist1.json")
    e = build_ears(EarsSpec.from_json(load_spec_file("b2_nu2_twist1.json")))
    assert e.period == (4, 2)
    classify = Ears.classify
    calls = []

    def counted(self, *args):
        calls.append(None)
        return classify(self, *args)

    monkeypatch.setattr(Ears, "classify", counted)
    for window, want in ((1, 8_512), (2, 18_816)):
        calls.clear()
        assert main(["info", spec, "--window", str(window)]) == 0
        capsys.readouterr()
        assert len(calls) == want


@pytest.mark.parametrize("window", [0, 1, 2])
def test_axiom_checks_match_on_incompatible_system(b2_affine, window):
    bad = _l_is_4z(b2_affine)
    w = Window(window)
    checks = verify_axioms(bad, w).checks
    want = ref.axiom_window_checks(bad, w)
    assert {k: checks[k] for k in want} == want
    if window:
        assert not checks["root_strings"]["passed"]


def test_hom_basis_rule_uses_its_own_period(a2_nu1):
    """A hom given on a non-standard basis: q still reads the exponent mod m."""
    basis = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    c = Character(a2_nu1, 3, LatticeHomRule(basis, (1, 2, 0)))
    assert c._period == (6,)
    w = Window(2)
    assert verify_character(c, w).to_json() == ref.verify_by_pairs(c, w, False).to_json()
