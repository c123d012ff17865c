import pytest

from fraction_reference import lattice_coords
from ears.base import Window
from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice
from ears.system import (
    Ears,
    EarsSpec,
    Root,
    RootClass,
    build_ears,
    check_compatibility,
    enumerate_roots,
    finite_parts_connected,
    index_formula,
    invariants,
    root_from_json,
    root_to_json,
    twist_order,
    verify_axioms,
)

from conftest import SPEC_DIR, load_spec_file

# simple roots of B2: s1 long, s2 short (see tests/test_finite.py)
B2_HIGHEST_SHORT = (1, 1)
B2_HIGHEST_LONG = (1, 2)


def root_level_connected(e, noniso):
    """The search `verify_axioms` made on the roots themselves, kept as an oracle."""
    if not noniso:
        return True
    seen = {noniso[0]}
    frontier = [noniso[0]]
    pool = set(noniso)
    while frontier:
        cur = frontier.pop()
        for other in pool - seen:
            if e.pairing(cur, other) != 0:
                seen.add(other)
                frontier.append(other)
    return seen == pool


class TestSpecValidation:
    def test_rank_one_needs_a1(self):
        with pytest.raises(ValueError):
            EarsSpec(FiniteType("A", 2), 1, s=Semilattice.standard(1))

    def test_lattice_form_needs_simply_laced(self):
        with pytest.raises(ValueError):
            EarsSpec(FiniteType("B", 2), 1, lattice=IntLattice.standard(1))

    def test_component_ranks_must_match_twist(self):
        with pytest.raises(ValueError):
            EarsSpec(
                FiniteType("B", 2), 2, 1, s1=Semilattice.standard(0), s2=Semilattice.standard(2)
            )

    def test_c_type_needs_lattice_s1(self):
        s1 = Semilattice(
            IntLattice.standard(2), ((0, 0), (1, 0), (0, 1))
        )  # three cosets: not a lattice
        with pytest.raises(ValueError):
            EarsSpec(FiniteType("C", 3), 3, 2, s1=s1, s2=Semilattice.standard(1))

    def test_b3_needs_lattice_s2(self):
        s2 = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        with pytest.raises(ValueError):
            EarsSpec(FiniteType("B", 3), 3, 1, s1=Semilattice.standard(1), s2=s2)

    def test_twist_bounds(self):
        with pytest.raises(ValueError):
            EarsSpec(
                FiniteType("B", 2), 1, 2, s1=Semilattice.standard(2), s2=Semilattice.standard(-1)
            )

    def test_json_roundtrip(self, b2_nu2_twisted, affine_a1, a2_nu2):
        for e in (b2_nu2_twisted, affine_a1, a2_nu2):
            spec = e.spec
            assert EarsSpec.from_json(spec.to_json()) == spec


class TestBuild:
    def test_affine_a1_window_counts(self, affine_a1):
        roots = enumerate_roots(affine_a1, Window(2))
        noniso = [r for r in roots if r.finite is not None]
        assert len(noniso) == 10
        assert len(roots) - len(noniso) == 5

    def test_b2_untwisted_affine_semilattices(self, b2_affine):
        assert b2_affine.S.reps == ((0,), (1,))
        assert b2_affine.L.reps == ((0,), (1,))
        assert b2_affine.S.lattice == b2_affine.L.lattice

    def test_simply_laced_window_zero(self, a2_nu2):
        roots = enumerate_roots(a2_nu2, Window(0))
        assert len(roots) == 7  # six finite roots plus the zero root

    def test_counterexample_window_one_count(self, counterexample_char):
        e = counterexample_char.ears
        roots = enumerate_roots(e, Window(1))
        noniso = [r for r in roots if r.finite is not None]
        in_s = sum(1 for iso in Window(1).points(e.nullity) if e.S.contains(iso))
        assert len(noniso) == 2 * in_s == 154

    def test_negation_closure(self, b2_nu2_twisted, a1_nu2_three_coset):
        for e in (b2_nu2_twisted, a1_nu2_three_coset):
            for r in enumerate_roots(e, Window(2)):
                assert e.classify(*e.neg(r)) == e.classify(*r)

    def test_enumeration_is_sorted_and_isotropic_first(self, b2_nu2_twisted):
        e = b2_nu2_twisted
        roots = enumerate_roots(e, Window(2))
        assert roots == sorted(roots, key=e.sort_key)
        first_finite = next(i for i, r in enumerate(roots) if r.finite is not None)
        assert all(r.finite is None for r in roots[:first_finite])

    def test_incompatible_raw_build_rejected(self):
        # L = 4Z under S = Z violates kS + L = L for the doubled lacing
        spec = EarsSpec(
            FiniteType("B", 2), 1, 0, s1=Semilattice.standard(0), s2=Semilattice.standard(1)
        )
        good = build_ears(spec)
        bad_l = Semilattice.full(IntLattice(((4,),)))
        bad = Ears(spec, good.finite, good.S, bad_l)
        problems = check_compatibility(bad)
        assert problems


class TestClassify:
    def test_short_at_representative(self, b2_affine):
        assert b2_affine.classify(B2_HIGHEST_SHORT, (1,)) is RootClass.SHORT

    def test_zero_is_isotropic(self, affine_a1):
        assert affine_a1.classify(None, (0,)) is RootClass.ISOTROPIC

    def test_triple_sum_outside_support(self, counterexample_char):
        e = counterexample_char.ears
        assert e.classify(None, (1, 1, 1, 0, 0, 0)) is RootClass.NOT_A_ROOT

    def test_long_needs_l_membership(self, b2_nu2_twisted):
        e = b2_nu2_twisted
        assert e.classify(B2_HIGHEST_LONG, (2, 1)) is RootClass.LONG
        assert e.classify(B2_HIGHEST_LONG, (1, 0)) is RootClass.NOT_A_ROOT
        assert e.classify(B2_HIGHEST_SHORT, (1, 0)) is RootClass.SHORT

    def test_outside_ambient_lattice_raises(self):
        s = Semilattice.full(IntLattice(((2,),)))
        e = build_ears(EarsSpec.rank_one(1, s))
        with pytest.raises(ValueError):
            e.classify(None, lattice_coords(e, (1,)))

    def test_non_root_finite_part(self, a2_nu1):
        doubled = tuple(2 * x for x in a2_nu1.finite.coords[0])
        assert a2_nu1.classify(doubled, (0,)) is RootClass.NOT_A_ROOT

    def test_enumerated_roots_all_classify(self, b2_nu2_twisted):
        e = b2_nu2_twisted
        for r in enumerate_roots(e, Window(1)):
            assert e.is_root(r)


class TestInvariants:
    def test_affine_a1(self, affine_a1):
        inv = invariants(affine_a1)
        assert (inv["ind_R"], inv["refl_R"]) == (0, 2)
        assert inv["convention"] == "coset_count"

    def test_a1_nu2_full(self, a1_nu2_full):
        inv = invariants(a1_nu2_full)
        assert (inv["ind_R"], inv["refl_R"]) == (1, 4)

    def test_a1_nu2_three_coset(self, a1_nu2_three_coset):
        inv = invariants(a1_nu2_three_coset)
        assert (inv["ind_R"], inv["refl_R"]) == (0, 3)

    def test_simply_laced_zero(self, a2_nu2):
        inv = invariants(a2_nu2)
        assert inv["ind_R"] == 0
        assert inv["refl_R"] == inv["lattice_rank"] == 4

    def test_b2_rows(self, b2_affine, b2_nu2_twisted):
        assert invariants(b2_affine)["ind_R"] == 0
        inv = invariants(b2_nu2_twisted)
        assert inv["ind_R"] == 0
        assert inv["twist_order"] == 2

    def test_b2_with_full_s1_has_positive_index(self):
        e = build_ears(
            EarsSpec(
                FiniteType("B", 2), 2, 2, s1=Semilattice.standard(2), s2=Semilattice.standard(0)
            )
        )
        assert invariants(e)["ind_R"] == 1  # ind(S1) + ind(S2) - nullity = 3 + 0 - 2

    def test_c3_affine_both_twists(self):
        untwisted = build_ears(
            EarsSpec(
                FiniteType("C", 3), 1, 0, s1=Semilattice.standard(0), s2=Semilattice.standard(1)
            )
        )
        twisted = build_ears(
            EarsSpec(
                FiniteType("C", 3), 1, 1, s1=Semilattice.standard(1), s2=Semilattice.standard(0)
            )
        )
        assert invariants(untwisted)["ind_R"] == 0
        assert invariants(twisted)["ind_R"] == 0
        assert twist_order(twisted) == 2

    def test_g2_twist_order_is_lacing_power(self):
        e = build_ears(
            EarsSpec(
                FiniteType("G", 2), 1, 1, s1=Semilattice.standard(1), s2=Semilattice.standard(0)
            )
        )
        inv = invariants(e)
        assert inv["twist_order"] == 3
        assert inv["ind_R"] == 0

    def test_finite_case_nullity_zero(self):
        e = build_ears(EarsSpec.rank_one(0, Semilattice.standard(0)))
        inv = invariants(e)
        assert (inv["ind_R"], inv["refl_R"]) == (0, 1)
        assert len(enumerate_roots(e, Window(0))) == 3

    def test_index_formula_conventions(self, affine_a1, b2_affine):
        assert index_formula(affine_a1) == (0, "coset_count")
        assert index_formula(b2_affine) == (0, "index")


class TestVerifyAxioms:
    @pytest.mark.parametrize(
        "fixture",
        ["affine_a1", "a1_nu2_three_coset", "a2_nu1", "b2_affine", "b2_nu2_twisted"],
    )
    def test_builds_pass(self, fixture, request):
        e = request.getfixturevalue(fixture)
        report = verify_axioms(e, Window(2))
        assert report.ok, report.checks

    def test_negative_control_coupling(self, b2_affine):
        bad_l = Semilattice.full(IntLattice(((4,),)))
        bad = Ears(b2_affine.spec, b2_affine.finite, b2_affine.S, bad_l)
        report = verify_axioms(bad, Window(1))
        assert not report.checks["semilattice_coupling"]["passed"]
        assert report.checks["semilattice_coupling"]["failures"]

    def test_affine_string_through_delta(self, affine_a1):
        e = affine_a1
        alpha = e.root_from_coords((1, 0))
        delta = Root(None, (1,))
        members = {
            n
            for n in range(-4, 5)
            if e.is_root(e.add(delta, e.scale_root(n, alpha)))
        }
        d, u = -min(members), max(members)
        assert d == u
        assert 1 <= d <= 2


class TestRootJson:
    def test_roundtrip(self, b2_nu2_twisted):
        e = b2_nu2_twisted
        for r in enumerate_roots(e, Window(1)):
            assert root_from_json(e, root_to_json(e, r)) == r

    def test_coords_roundtrip(self, a2_nu2):
        e = a2_nu2
        for r in enumerate_roots(e, Window(1)):
            assert e.root_from_coords(e.root_coords(r)) == r


class TestConnectivity:
    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in SPEC_DIR.glob("*.json") if not p.name.endswith("_char.json")),
    )
    def test_finite_parts_match_root_search(self, name):
        e = build_ears(EarsSpec.from_json(load_spec_file(name)))
        # nullity 6 to 8: the window grows as (2w + 1)^nullity
        windows = {"counterexample_nu6.json": (0, 1), "s77_nu7.json": (0, 1),
                   "a1_dense_nu8.json": (0, 1), "b2_dense_nu8.json": (0,)}.get(name, (0, 1, 2))
        for n in windows:
            noniso = [r for r in enumerate_roots(e, Window(n)) if r.finite is not None]
            assert finite_parts_connected(e, noniso) == root_level_connected(e, noniso)

    def test_orthogonal_finite_parts_disconnected(self):
        e = build_ears(EarsSpec.from_json(load_spec_file("a3_nu2.json")))
        roots = [
            Root(fin, iso)
            for fin in ((1, 0, 0), (0, 0, 1))
            for iso in ((0, 0), (1, 0))
        ]
        assert all(e.is_root(r) for r in roots)
        assert not root_level_connected(e, roots)
        assert not finite_parts_connected(e, roots)
