import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import enumeration_reference as ref
from ears.base import Window
from ears.finite import FiniteType
from ears.system import Ears, EarsSpec, Root, build_ears, enumerate_roots, invariants
from ears.weyl import (
    _subsets,
    check_reflectable,
    decompose,
    decompose_all,
    minimal_reflectable_size,
    orbit_closure,
)
from weyl_reference import reflect

from conftest import load_spec_file
from test_integer_roots import semilattices


def affine_base(e):
    return [e.root_from_coords((1, 0)), e.root_from_coords((-1, 1))]


class TestReflect:
    def test_negates_itself(self, affine_a1):
        a = affine_a1.root_from_coords((1, 0))
        assert reflect(affine_a1, a, a) == affine_a1.neg(a)

    def test_affine_example(self, affine_a1):
        e = affine_a1
        a = e.root_from_coords((1, 0))
        b = e.root_from_coords((-1, 1))
        assert reflect(e, a, b) == e.root_from_coords((1, 1))

    def test_isotropic_fixed(self, affine_a1):
        e = affine_a1
        a = e.root_from_coords((1, 0))
        sigma = Root(None, (1,))
        assert reflect(e, a, sigma) == sigma

    def test_isotropic_direction_rejected(self, affine_a1):
        with pytest.raises(ValueError):
            reflect(affine_a1, Root(None, (1,)), affine_a1.root_from_coords((1, 0)))

    @pytest.mark.parametrize("fixture", ["affine_a1", "b2_affine", "a2_nu1"])
    def test_involution_and_class_preservation(self, fixture, request):
        e = request.getfixturevalue(fixture)
        roots = enumerate_roots(e, Window(1))
        noniso = [r for r in roots if r.finite is not None]
        for a in noniso:
            for b in roots:
                image = reflect(e, a, b)
                assert e.classify(*image) == e.classify(*b)
                assert reflect(e, a, image) == b


class TestOrbitClosure:
    def test_affine_base_covers(self, affine_a1):
        e = affine_a1
        orbit = orbit_closure(e, affine_base(e), Window(3))
        target = {r for r in enumerate_roots(e, Window(3)) if r.finite is not None}
        assert target <= orbit

    def test_singleton_orbit(self, affine_a1):
        e = affine_a1
        a = e.root_from_coords((1, 0))
        assert orbit_closure(e, [a], Window(3)) == {a, e.neg(a)}

    def test_coset_blind_base_misses(self, a1_nu2_full):
        # all three base roots have isotropic classes 00, 10, 01; reflections
        # in rank one move the isotropic part by even steps only
        e = a1_nu2_full
        base = [
            e.root_from_coords((1, 0, 0)),
            e.root_from_coords((1, 1, 0)),
            e.root_from_coords((1, 0, 1)),
        ]
        report = check_reflectable(e, base, Window(2))
        assert not report.covered
        missing = {e.root_coords(r) for r in report.missing}
        assert (1, 1, 1) in missing

    def test_margin_stability(self, affine_a1, a2_nu1, b2_affine):
        cases = [
            (affine_a1, affine_base(affine_a1)),
            (
                a2_nu1,
                [
                    a2_nu1.root_from_coords((1, 0, 0)),
                    a2_nu1.root_from_coords((0, 1, 0)),
                    a2_nu1.root_from_coords((-1, -1, 1)),
                ],
            ),
            (
                b2_affine,
                [
                    b2_affine.root_from_coords((1, 0, 0)),
                    b2_affine.root_from_coords((0, 1, 0)),
                    b2_affine.root_from_coords((-1, -2, 1)),
                ],
            ),
        ]
        for e, base in cases:
            stable = orbit_closure(e, base, Window(2), margin=2)
            larger = orbit_closure(e, base, Window(2), margin=4)
            assert stable == larger
            # monotone in the margin
            smaller = orbit_closure(e, base, Window(2), margin=0)
            assert smaller <= stable

    def test_empty_base_rejected(self, affine_a1):
        with pytest.raises(ValueError):
            orbit_closure(affine_a1, [], Window(2))

    def test_isotropic_base_rejected(self, affine_a1):
        with pytest.raises(ValueError):
            orbit_closure(affine_a1, [Root(None, (1,))], Window(2))


class TestMinimalSize:
    def test_affine_a1_is_two(self, affine_a1):
        res = minimal_reflectable_size(affine_a1, Window(3), 4)
        assert res.size == 2

    def test_three_coset_is_three(self, a1_nu2_three_coset):
        res = minimal_reflectable_size(a1_nu2_three_coset, Window(3), 4)
        assert res.size == 3

    def test_full_lattice_is_four(self, a1_nu2_full):
        res = minimal_reflectable_size(a1_nu2_full, Window(3), 4)
        assert res.size == 4

    def test_simply_laced_affine_is_rank_plus_one(self, a2_nu1):
        res = minimal_reflectable_size(a2_nu1, Window(2), 4)
        assert res.size == 3

    def test_not_found_below_minimum(self, a1_nu2_full):
        res = minimal_reflectable_size(a1_nu2_full, Window(2), 3)
        assert res.size is None

    def test_found_base_verifies(self, affine_a1):
        res = minimal_reflectable_size(affine_a1, Window(3), 2)
        assert check_reflectable(affine_a1, res.base, Window(3)).covered


# The small shipped specs: on the others the oracle, which visits every subset
# of the pool, does not finish at windows >= 1; a3_nu2 at window 0 is left out
# because the oracle does not finish there.
SMALL_SPECS = ("a1_nu2_full", "a1_nu2_three_coset", "a2_nu1", "a3_nu2", "affine_a1",
               "b2_nu1_untwisted", "b2_nu2_twist1", "g2_nu1")
ORACLE_CASES = [
    (name, bound)
    for name in SMALL_SPECS
    for bound in (0, 1, 2)
    if (name, bound) != ("a3_nu2", 0)
]


@pytest.mark.parametrize("name,bound", ORACLE_CASES)
def test_search_matches_unpruned_oracle(name, bound):
    """The pruned search gives the report of the search over every subset of
    the whole pool, at every max_size up to rank + nullity + 1."""
    e = build_ears(EarsSpec.from_json(load_spec_file(f"{name}.json")))
    w = Window(bound)
    for max_size in range(1, e.rank + e.nullity + 2):
        got = minimal_reflectable_size(e, w, max_size)
        assert got == ref.minimal_reflectable_size_by_subsets(e, w, max_size), max_size


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((None, 0, 1, 2, 3)), max_size=9), st.sets(st.integers(0, 3)),
       st.integers(0, 5), st.integers(0, 4))
def test_walk_skips_only_subsets_the_class_test_refuses(classes, needed, low, count):
    """The walk gives exactly the subsets of `itertools.combinations` that meet
    every needed class, in the same order."""
    pool = list(range(len(classes)))
    sizes = range(low, low + count)
    want = [combo for size in sizes for combo in itertools.combinations(pool, size)
            if needed <= {classes[i] for i in combo}]
    assert list(_subsets(pool, classes, needed, sizes)) == want


# A search with no class rule visits every subset below the size it finds.
# Within this budget it finishes on the small specs at windows 1 and 2; on the
# counterexample, s77_nu7, a1_nu3_full, b2_nu2_s2_four and the dense specs it
# would first visit every subset of rank + nullity of hundreds of candidates.
UNRULED_BUDGET = 10_000


def unruled_search_agrees(e: Ears, w: Window) -> bool:
    """Does the search with no class rule give the same size as the search,
    wherever it finishes within the budget?  Returns whether it finished."""
    got = minimal_reflectable_size(e, w, invariants(e)["refl_R"] + 1)
    unruled = ref.minimal_reflectable_size_by_subsets(
        e, w, got.size or got.max_size, class_rule=False, budget=UNRULED_BUDGET
    )
    assert unruled is None or unruled.size == got.size
    return unruled is not None


@pytest.mark.parametrize("name", SMALL_SPECS)
@pytest.mark.parametrize("bound", (1, 2))
def test_class_rule_is_sound_on_shipped_specs(name, bound):
    e = build_ears(EarsSpec.from_json(load_spec_file(f"{name}.json")))
    assert unruled_search_agrees(e, Window(bound))


@st.composite
def small_specs(draw):
    """A rank-one spec of nullity at most 2, or a B2 spec of nullity 1."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 2))
        return EarsSpec.rank_one(n, draw(semilattices(n)))
    twist = draw(st.integers(0, 1))
    return EarsSpec(FiniteType("B", 2), 1, twist,
                    s1=draw(semilattices(twist)), s2=draw(semilattices(1 - twist)))


@settings(max_examples=30, deadline=None)
@given(small_specs(), st.sampled_from((1, 2)))
def test_class_rule_is_sound(spec, bound):
    finished = unruled_search_agrees(build_ears(spec), Window(bound))
    event(f"search with no class rule finished: {finished}")


class TestDecompose:
    def test_single_term_positive(self, affine_a1):
        e = affine_a1
        b = e.root_from_coords((1, 0))
        dec = decompose(e, b, affine_base(e), Window(3))
        assert dec.terms == ((1, b),)

    def test_single_term_negative(self, affine_a1):
        e = affine_a1
        b = e.root_from_coords((1, 0))
        dec = decompose(e, e.neg(b), affine_base(e), Window(3))
        assert dec.terms == ((-1, b),)

    def test_affine_three_step(self, affine_a1):
        e = affine_a1
        target = e.root_from_coords((1, 1))
        dec = decompose(e, target, affine_base(e), Window(3))
        assert len(dec.terms) == 3
        assert dec.verify(e, target)
        for prefix in dec.prefixes(e):
            assert e.is_root(prefix)

    def test_unreachable_raises(self, a1_nu2_full):
        e = a1_nu2_full
        base = [e.root_from_coords((1, 0, 0))]
        with pytest.raises(ValueError):
            decompose(e, e.root_from_coords((1, 1, 0)), base, Window(2))

    def test_all_window_roots_reachable(self, a2_nu1):
        e = a2_nu1
        base = [
            e.root_from_coords((1, 0, 0)),
            e.root_from_coords((0, 1, 0)),
            e.root_from_coords((-1, -1, 1)),
        ]
        assert check_reflectable(e, base, Window(2)).covered
        table = decompose_all(e, base, Window(2))
        for r in enumerate_roots(e, Window(2)):
            if r.finite is None:
                continue
            assert r in table
            assert table[r].verify(e, r)

    def test_each_candidate_tested_once(self, monkeypatch):
        """At A3, nullity 2, window 3, with the simple roots and alpha_1 + delta_j
        as base: 2,204 distinct candidates, each tested for membership once."""
        e = build_ears(EarsSpec.simply_laced(FiniteType("A", 3), 2))
        rows = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                (1, 0, 0, 1, 0), (1, 0, 0, 0, 1)]
        base = [e.root_from_coords(row) for row in rows]
        tested: dict = {}
        is_root = Ears.is_root

        def counted(self, r):
            tested[r] = tested.get(r, 0) + 1
            return is_root(self, r)

        monkeypatch.setattr(Ears, "is_root", counted)
        table = decompose_all(e, base, Window(3))
        assert len(tested) == 2204
        assert set(tested.values()) == {1}
        assert set(table) == set(enumerate_roots(e, Window(3)))
