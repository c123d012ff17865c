"""The class-quotient window checks against the enumerating loops they replaced.

`verify_character`, `verify_core_character` and the window loops of
`verify_axioms` decide each check once per class of roots and weight it by
the class sizes.  `enumeration_reference` keeps the loops that visit every
window pair; both must give the same reports, counts and witnesses alike.

The square-shift identity value(alpha)**2 = value(alpha + sigma) *
value(alpha - sigma), for a non-isotropic alpha and an isotropic sigma with
both alpha + sigma and alpha - sigma roots, has no class-quotient version:
no command checks it, and the tests run its pair loop,
`enumeration_reference.square_shift_by_pairs`, alone.
"""

import itertools
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import enumeration_reference as ref
from conftest import SPEC_DIR, load_spec_file
from fraction_reference import ambient_model
from ears.base import Window, record
from ears.cli import main
from ears.characters import (
    Character,
    ClassRule,
    LatticeHomRule,
    TableRule,
    coset_rule,
    standard_hom_character,
    verify_character,
    verify_core_character,
)
from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice
from ears.system import Ears, EarsSpec, Root, build_ears, enumerate_roots, verify_axioms

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


@record
class Shifted(Character):
    """A character with 1 added to the exponent on one whole class of roots.

    With `period` set, the class is (finite part, iso mod period); with None
    it is the single root `target`.  Such a character fails additivity, and
    usually the inverse rule, on many pairs, so witnesses get listed.
    """

    target: Root | None = None
    period: tuple[int, ...] | None = None

    @property
    def _period(self):
        """The shift's own period when set, so every class of the pair loop
        lies inside one shifted class or outside all of them."""
        return super()._period if self.period is None else self.period

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


def class_table(c, q):
    """The class rule of period q with c's exponent on one root per root class."""
    e = c.ears
    entries = tuple(
        (Root(fin, iso), c._exponent(Root(fin, iso)))
        for fin in (None, *e.finite.coords)
        for iso in itertools.product(*map(range, q))
        if e.is_root(Root(fin, iso))
    )
    return ClassRule(q, entries)


@st.composite
def cases(draw):
    """(character, window): a hom, coset, class or table rule, shifted on one
    class or not."""
    kind = draw(st.sampled_from(["hom", "table", "a1coset", "class"]))
    e = draw(sum_free_rank_one() if kind == "a1coset" else systems())
    w = Window(draw(windows_for(e)))
    n = e.rank + e.nullity
    if kind == "a1coset":
        base, q = Character(e, 2, coset_rule(e)), class_period(e, 2)
    else:
        m = draw(st.sampled_from([2, 3, 4]))
        values = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        base, q = standard_hom_character(e, values, m), class_period(e, m)
    if kind == "class":
        base = Character(e, base.modulus, class_table(base, q))
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
    if not verify_character(c, w).ok:
        event("witnesses listed")


@settings(max_examples=60, deadline=None)
@given(cases())
def test_core_check_matches_core_of_full_report(case):
    """The core-only pair loop skips isotropic first classes; its report is
    the `core` of the full one, witnesses and window roots alike."""
    c, w = case
    got, want = verify_core_character(c, w), verify_character(c, w).core
    assert got.to_json() == want.to_json()
    assert got.additivity_failures == want.additivity_failures
    assert got.inverse_failures == want.inverse_failures
    assert got.roots == want.roots


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
    assert bad.period == (4,)
    for x in range(-20, 21):
        iso = (x,)
        assert bad._in_l(iso) == bad.L.contains(iso)


def assert_shift_invariant(e):
    """Moving coordinate j by period[j] never changes `classify`, for any finite part."""
    assert len(e.period) == e.nullity
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


def even_period(e):
    """A period from the definitions alone: 2 per coordinate without L, else
    2e_j, e_j the least e with e times the j-th unit vector in the span of L."""
    if e.L is None:
        return (2,) * e.nullity
    units = IntLattice.standard(e.nullity).basis
    return tuple(
        2 * next(k for k in itertools.count(1) if e.L.lattice.contains(tuple(k * x for x in u)))
        for u in units
    )


def assert_least(e):
    """No proper divisor d of period[j] is a period: on one full box of the
    even period, some finite part and iso classify differently after iso
    moves by d along coordinate j."""
    bound = even_period(e)
    assert all(c % q == 0 for q, c in zip(e.period, bound))
    isos = list(itertools.product(*map(range, bound)))
    fins = (None, *e.finite.coords)
    for j, q in enumerate(e.period):
        for d in (d for d in range(1, q) if q % d == 0):
            assert any(
                e.classify(fin, iso) != e.classify(fin, iso[:j] + (iso[j] + d,) + iso[j + 1:])
                for iso in isos for fin in fins
            ), (j, d)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_period_is_least_per_coordinate(e):
    event(f"period {e.period}")
    assert_least(e)


def test_period_is_least_without_compatibility(b2_affine):
    assert_least(_l_is_4z(b2_affine))


@pytest.mark.parametrize("name, want", [
    ("a3_nu2", (1, 1)), ("b2_nu2_twist1", (2, 1)), ("g2_nu1", (1,)), ("a2_nu1", (1,)),
    ("b2_nu1_untwisted", (1,)), ("affine_a1", (1,)), ("a1_nu2_full", (1, 1)),
    ("a1_nu2_three_coset", (2, 2)), ("counterexample_nu6", (2,) * 6),
])
def test_shipped_periods_are_least(name, want):
    e = build_ears(EarsSpec.from_json(load_spec_file(f"{name}.json")))
    assert e.period == want
    assert_shift_invariant(e)
    assert_least(e)


def test_twisted_period_per_coordinate(monkeypatch, capsys):
    """The least period is (2, 1), so `info` classifies one set of class
    pairs at window 1 and at window 2: window 1 already meets every class."""
    spec = str(SPEC_DIR / "b2_nu2_twist1.json")
    e = build_ears(EarsSpec.from_json(load_spec_file("b2_nu2_twist1.json")))
    assert e.period == (2, 1)
    classify = Ears.classify
    calls = []

    def counted(self, *args):
        calls.append(None)
        return classify(self, *args)

    monkeypatch.setattr(Ears, "classify", counted)
    for window, want in ((1, 1_176), (2, 1_176)):
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


@pytest.mark.parametrize("window", [1, 2])
def test_support_check_reads_parity_under_an_odd_period(window):
    """With S + S missing a class it should hold, the support check fails on
    exactly the points of that parity, though the period (1, 1) puts every
    point in one class."""
    e = build_ears(EarsSpec.from_json(load_spec_file("a3_nu2.json")))
    assert e.period == (1, 1)
    e.__dict__["r0_keys"] = e.r0_keys - {(1, 0)}
    w = Window(window)
    got = verify_axioms(e, w).checks["isotropic_support"]
    want = ref.axiom_window_checks(e, w)["isotropic_support"]
    assert got == want and not got["passed"]


def test_hom_basis_rule_uses_its_own_period(a2_nu1):
    """A hom given on a non-standard basis: q still reads the exponent mod m."""
    basis = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    c = Character(a2_nu1, 3, LatticeHomRule(basis, (1, 2, 0)))
    assert c._period == (3,)
    w = Window(2)
    assert verify_character(c, w).to_json() == ref.verify_by_pairs(c, w, False).to_json()


def test_class_rule_uses_its_own_period(a2_nu1):
    """A class rule of period 6 over `Ears.period` (1,): the pair loop reads
    classes mod 6, and a hom mod 3 tabled by class passes."""
    c = Character(a2_nu1, 3, class_table(standard_hom_character(a2_nu1, (1, 2, 1), 3), (6,)))
    assert c._period == (6,) and len(c.rule.entries) == 6 * 7
    w = Window(3)
    got = verify_character(c, w)
    assert got.ok and got.to_json() == ref.verify_by_pairs(c, w, False).to_json()
