import json
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import ears.characters
import ears.weyl
import fraction_reference
from enumeration_reference import (
    coset_character,
    coset_exponent,
    square_shift_by_pairs,
    sum_free_violation_by_subsets,
)
from ears.base import Window
from ears.characters import (
    Character,
    ClassRule,
    LatticeHomRule,
    TableRule,
    UnityValue,
    build_a1_counterexample,
    character_from_json,
    coset_rule,
    extend_ind_zero,
    extendability,
    recheck_witness,
    standard_hom_character,
    verify_character,
    verify_core_character,
)
from ears.lattice import IntLattice, Semilattice
from ears.system import EarsSpec, Root, build_ears, enumerate_roots
from ears.weyl import check_reflectable


def table_restriction(char, window):
    e = char.ears
    entries = tuple(
        (r, char.eval(r).exponent) for r in enumerate_roots(e, Window(window))
    )
    return Character(e, char.modulus, TableRule(window, entries))


class TestUnityValue:
    def test_reduction_enforced(self):
        with pytest.raises(ValueError):
            UnityValue(3, 3)
        with pytest.raises(ValueError):
            UnityValue(-1, 3)


class TestHomBasis:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_unimodular_check_matches_fraction_oracle(self, affine_a1, a2_nu1, data):
        e = data.draw(st.sampled_from((affine_a1, a2_nu1)), label="system")
        n = e.rank + e.nullity
        m = 5
        basis = tuple(
            tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n)
        )
        values = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
        cols = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
        rule = LatticeHomRule(basis, values)
        if abs(fraction_reference.det(cols)) != 1:
            with pytest.raises(ValueError, match="unimodular"):
                Character(e, m, rule)
            return
        inv = fraction_reference.inverse_unimodular(cols)
        assert Character(e, m, rule)._std_values == tuple(
            sum(values[i] * inv[i][j] for i in range(n)) % m for j in range(n)
        )


class TestCosetRuleValues:
    def test_trivial_class_positive(self, counterexample_char):
        c = counterexample_char
        alpha = c.ears.root_from_coords((1, 0, 0, 0, 0, 0, 0))
        assert c.eval(alpha).exponent == 0

    def test_nontrivial_class_negative(self, counterexample_char):
        c = counterexample_char
        assert c.eval(Root(None, (1, 0, 0, 0, 0, 0))).exponent == 1
        assert c.eval(c.ears.root_from_coords((1, 1, 0, 0, 0, 0, 0))).exponent == 1

    def test_pair_sum_class_positive(self, counterexample_char):
        c = counterexample_char
        assert c.eval(Root(None, (1, 1, 0, 0, 0, 0))).exponent == 0

    def test_depends_only_on_coset(self, counterexample_char):
        c = counterexample_char
        rng = random.Random(7)
        base = Root(None, (1, 1, 1, 1, 1, 1))
        want = c.eval(base).exponent
        for _ in range(25):
            shift = tuple(2 * rng.randint(-3, 3) for _ in range(6))
            translated = Root(None, tuple(a + b for a, b in zip(base.iso, shift)))
            assert c.eval(translated).exponent == want

    def test_requires_modulus_two(self, counterexample_char):
        with pytest.raises(ValueError, match="order-2"):
            character_from_json(
                counterexample_char.ears, {"modulus": 4, "rule": {"kind": "a1coset"}}
            )

    def test_requires_rank_one(self, a2_nu1):
        with pytest.raises(ValueError, match="rank-one"):
            coset_rule(a2_nu1)

    def test_non_root_rejected(self, counterexample_char):
        with pytest.raises(ValueError):
            counterexample_char.eval(Root(None, (1, 1, 1, 0, 0, 0)))


@st.composite
def semilattices(draw):
    """Random semilattices of dimension at most 6 on a unimodular, non-standard basis.

    Class keys are drawn as bit masks; the standard basis masks that are not
    drawn are inserted at random places, so the reps span the lattice mod 2L.
    """
    d = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, 2**d - 1), unique=True, max_size=16 - d))
    masks += [1 << j for j in range(d) if 1 << j not in masks]
    masks = draw(st.permutations(masks))
    basis = tuple(
        tuple(1 if i == j else draw(st.integers(-2, 2)) if i > j else 0 for j in range(d))
        for i in range(d)
    )
    lattice = IntLattice(basis)
    reps = [(0,) * d] + [
        lattice.from_coords(
            tuple((mask >> j & 1) + 2 * draw(st.integers(-1, 1)) for j in range(d))
        )
        for mask in masks
    ]
    return Semilattice(lattice, tuple(reps))


class TestSumFreeCondition:
    """The subset search's sum-free condition is sufficient for the coset
    rule to be a character, but not necessary."""

    def test_defaults_pass(self, counterexample_char):
        e = counterexample_char.ears
        assert sum_free_violation_by_subsets(e.S) is None
        assert coset_rule(e) == counterexample_char.rule

    @settings(max_examples=300, deadline=None)
    @given(semilattices())
    def test_sum_free_semilattices_are_accepted(self, s):
        if sum_free_violation_by_subsets(s) is None:
            coset_rule(build_ears(EarsSpec.rank_one(s.dim, s)))

    def test_dependent_representative_caught(self):
        s = Semilattice.standard(2)  # reps 00, 01, 10, 11: 01+10+11 = 0 mod 2L
        assert sum_free_violation_by_subsets(s) is not None
        with pytest.raises(ValueError, match=r"classes \(0, 1\) and \(1, 0\) sum into \(1, 1\)"):
            coset_rule(build_ears(EarsSpec.rank_one(2, s)))

    def test_constructor_rejects_violation(self, a1_nu2_full):
        with pytest.raises(ValueError, match="coset rule is not a character"):
            coset_rule(a1_nu2_full)
        with pytest.raises(ValueError, match="coset rule is not a character"):
            character_from_json(a1_nu2_full, {"modulus": 2, "rule": {"kind": "a1coset"}})

    def test_counterexample_rejects_dependent_taus(self):
        with pytest.raises(ValueError):
            build_a1_counterexample(2, [(1, 0), (0, 1), (1, 1)])


@st.composite
def spanning_rank_one(draw):
    """A rank-one system over Z^nu, nu <= 5, with S any set of classes that
    spans F2^nu."""
    nu = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(1, 2**nu - 1), unique=True, min_size=nu))
    reps = ((0,) * nu,) + tuple(tuple(m >> j & 1 for j in range(nu)) for m in masks)
    try:
        s = Semilattice(IntLattice.standard(nu), reps)
    except ValueError:  # the classes do not span
        assume(False)
    return build_ears(EarsSpec.rank_one(nu, s))


class TestCosetRuleAcceptance:
    @settings(max_examples=150, deadline=None)
    @given(spanning_rank_one())
    def test_accepts_exactly_the_characters(self, e):
        """Window 1 meets every class mod 2, so its verdict on the unchecked
        coset rule is the global one; the class table must agree with it."""
        ok = verify_character(coset_character(e), Window(1)).ok
        event(f"character {ok}, sum-free {sum_free_violation_by_subsets(e.S) is None}")
        try:
            rule = coset_rule(e)
        except ValueError as exc:
            assert not ok, exc
            return
        assert ok
        assert all(coset_exponent(e, r) == x for r, x in rule.entries)

    def test_sum_free_refusal_was_not_necessary(self):
        """Four nonzero classes summing into 2L, yet the rule is a character."""
        taus = [(1, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0)]
        c = build_a1_counterexample(3, taus)
        assert sum_free_violation_by_subsets(c.ears.S) == (1, 2, 3, 4)
        assert verify_character(c, Window(1)).ok
        assert extendability(c, Window(1)).sat


class TestClassRule:
    def test_class_without_entry_raises_when_evaluated(self, counterexample_char):
        rule = counterexample_char.rule
        c = Character(counterexample_char.ears, 2, ClassRule(rule.period, rule.entries[1:]))
        (root, _), *_ = rule.entries
        far = Root(root.finite, tuple(x + 4 for x in root.iso))
        with pytest.raises(ValueError, match="no entry"):
            c.eval(far)
        assert c.eval(rule.entries[1][0]).exponent == rule.entries[1][1]

    def test_entries_are_keyed_by_class(self, counterexample_char):
        e, rule = counterexample_char.ears, counterexample_char.rule
        moved = tuple((Root(r.finite, tuple(x - 2 for x in r.iso)), x) for r, x in rule.entries)
        assert Character(e, 2, ClassRule(rule.period, moved)).rule.lookup == rule.lookup
        with pytest.raises(ValueError, match="more than once"):
            Character(e, 2, ClassRule(rule.period, rule.entries + moved[:1]))


class TestTableRule:
    @pytest.mark.parametrize("window", [1.5, -1, True, "1"])
    def test_window_checked_when_built(self, a2_nu1, window):
        hom = standard_hom_character(a2_nu1, (1, 0, 1), 2)
        entries = table_restriction(hom, 1).rule.entries
        with pytest.raises(ValueError, match="window bound"):
            Character(a2_nu1, 2, TableRule(window, entries))


class TestVerify:
    def test_hom_characters_pass_all_windows(self, a2_nu1, b2_nu2_twisted):
        for e, values, m in (
            (a2_nu1, (1, 2, 3), 4),
            (b2_nu2_twisted, (1, 0, 1, 2), 3),
        ):
            c = standard_hom_character(e, values, m)
            for n in (1, 2):
                assert verify_core_character(c, Window(n)).ok
                assert verify_character(c, Window(n)).ok

    def test_coset_rule_passes(self, counterexample_char):
        report = verify_character(counterexample_char, Window(1))
        assert report.ok
        assert report.pairs_checked > 100000

    def test_corrupted_table_fails_with_witness(self, a2_nu1):
        hom = standard_hom_character(a2_nu1, (1, 0, 1), 2)
        table = table_restriction(hom, 2)
        entries = list(table.rule.entries)
        key, exp = entries[3]
        entries[3] = (key, (exp + 1) % 2)
        corrupted = Character(a2_nu1, 2, TableRule(2, tuple(entries)))
        report = verify_character(corrupted, Window(2))
        assert not report.ok
        assert report.additivity_failures or report.inverse_failures

    def test_forced_coset_table_on_full_lattice_fails(self, a1_nu2_full):
        # the coset values are not a character when a dependent class is present
        e = a1_nu2_full
        ambient, s, _ = fraction_reference.ambient_model(e.spec)
        entries = []
        for r in enumerate_roots(e, Window(2)):
            i = fraction_reference.coset_class(s, ambient.from_coords(r.iso))
            if r.finite is not None:
                entries.append((r, 0 if i == 0 else 1))
            else:
                entries.append((r, 1 if (i is not None and i > 0) else 0))
        forced = Character(e, 2, TableRule(2, tuple(entries)))
        report = verify_character(forced, Window(2))
        assert not report.ok
        assert report.additivity_failures

    def test_square_shift_identity(self, counterexample_char, a2_nu1):
        assert square_shift_by_pairs(counterexample_char, Window(1))["ok"]
        hom = standard_hom_character(a2_nu1, (1, 2, 3), 4)
        result = square_shift_by_pairs(hom, Window(2))
        assert result["ok"] and result["checked"] > 0


class TestCounterexample:
    def test_values_on_generators(self, counterexample_char):
        c = counterexample_char
        tau7 = Root(None, (1, 1, 1, 1, 1, 1))
        assert c.eval(tau7).exponent == 1
        product = sum(
            c.eval(Root(None, tuple(int(i == j) for i in range(6)))).exponent
            for j in range(6)
        )
        assert product % 2 == 0

    def test_default_shape(self, counterexample_char):
        e = counterexample_char.ears
        assert e.S.coset_count == 8
        assert e.nullity == 6

    def test_nullity_seven_defaults_span(self):
        c = build_a1_counterexample(7)
        assert c.ears.S.coset_count == 9
        assert verify_character(c, Window(1)).ok

    def test_small_nullity_rejected(self):
        with pytest.raises(ValueError):
            build_a1_counterexample(4)

    def test_duplicate_taus_rejected(self):
        with pytest.raises(ValueError):
            build_a1_counterexample(6, [(1, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)])


class TestExtendability:
    def test_hom_roundtrip(self, b2_nu2_twisted):
        c = standard_hom_character(b2_nu2_twisted, (1, 0, 1, 2), 3)
        res = extendability(c, Window(2))
        assert res.sat
        for r in enumerate_roots(b2_nu2_twisted, Window(2)):
            assert res.hom.eval(r).exponent == c.eval(r).exponent

    def test_trivial_character(self, a2_nu1):
        c = standard_hom_character(a2_nu1, (0, 0, 0), 5)
        res = extendability(c, Window(2))
        assert res.sat
        assert all(v == 0 for v in res.hom._std_values)

    def test_counterexample_unsat_with_witness(self, counterexample_char):
        res = extendability(counterexample_char, Window(1))
        assert not res.sat
        ok, detail = recheck_witness(counterexample_char, res.witness)
        assert ok
        assert detail["exponent_sum"] == 1

    def test_unverified_character_rejected(self, a2_nu1):
        hom = standard_hom_character(a2_nu1, (1, 0, 1), 2)
        entries = list(table_restriction(hom, 2).rule.entries)
        key, exp = entries[0]
        entries[0] = (key, (exp + 1) % 2)
        corrupted = Character(a2_nu1, 2, TableRule(2, tuple(entries)))
        with pytest.raises(ValueError):
            extendability(corrupted, Window(2))

    def test_extendable_coset_variant(self):
        # three cosets in rank two satisfy the sum-free condition vacuously
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        e = build_ears(EarsSpec.rank_one(2, s))
        c = Character(e, 2, coset_rule(e))
        assert verify_character(c, Window(2)).ok
        res = extendability(c, Window(2))
        assert res.sat


class TestExtendIndZero:
    def test_a2_roundtrip(self, a2_nu1):
        e = a2_nu1
        hom = standard_hom_character(e, (1, 2, 3), 4)
        table = table_restriction(hom, 3)
        base = [
            e.root_from_coords((1, 0, 0)),
            e.root_from_coords((0, 1, 0)),
            e.root_from_coords((1, 0, 1)),
        ]
        recovered = extend_ind_zero(table, base, Window(3))
        for r in enumerate_roots(e, Window(3)):
            assert recovered.eval(r).exponent == hom.eval(r).exponent

    def test_affine_a1_with_unimodular_base(self, affine_a1):
        e = affine_a1
        hom = standard_hom_character(e, (1, 1), 2)
        table = table_restriction(hom, 3)
        base = [e.root_from_coords((1, 0)), e.root_from_coords((1, 1))]
        recovered = extend_ind_zero(table, base, Window(3))
        assert recovered.eval(Root(None, (1,))).exponent == hom.eval(Root(None, (1,))).exponent

    def test_non_basis_rejected(self, affine_a1):
        e = affine_a1
        hom = standard_hom_character(e, (1, 1), 2)
        table = table_restriction(hom, 3)
        base = [e.root_from_coords((1, 1)), e.root_from_coords((-1, 1))]
        with pytest.raises(ValueError):
            extend_ind_zero(table, base, Window(3))

    def test_nonzero_index_rejected(self, a1_nu2_full):
        e = a1_nu2_full
        hom = standard_hom_character(e, (1, 0, 0), 2)
        base = [
            e.root_from_coords((1, 0, 0)),
            e.root_from_coords((1, 1, 0)),
            e.root_from_coords((1, 0, 1)),
        ]
        with pytest.raises(ValueError):
            extend_ind_zero(hom, base, Window(2))

    def test_trivial_character_gives_zero_hom(self, a2_nu1):
        e = a2_nu1
        trivial = standard_hom_character(e, (0, 0, 0), 3)
        base = [
            e.root_from_coords((1, 0, 0)),
            e.root_from_coords((0, 1, 0)),
            e.root_from_coords((1, 0, 1)),
        ]
        assert check_reflectable(e, base, Window(2)).covered
        recovered = extend_ind_zero(table_restriction(trivial, 2), base, Window(2))
        assert all(v == 0 for v in recovered._std_values)

    def test_window_enumerated_once(self, monkeypatch, a2_nu1):
        """The telescoping loop reads the roots `check_reflectable` enumerated."""
        e = a2_nu1
        table = table_restriction(standard_hom_character(e, (1, 2, 3), 4), 2)
        base = [e.root_from_coords(v) for v in ((1, 0, 0), (0, 1, 0), (1, 0, 1))]
        calls = []

        def counted(*args):
            calls.append(args)
            return enumerate_roots(*args)

        for module in (ears.characters, ears.weyl):
            monkeypatch.setattr(module, "enumerate_roots", counted)
        extend_ind_zero(table, base, Window(2))
        assert len(calls) == 1


class TestJson:
    def test_hom_roundtrip(self, a2_nu1):
        c = standard_hom_character(a2_nu1, (1, 2, 3), 4)
        back = character_from_json(a2_nu1, c.to_json())
        assert back == c

    def test_coset_roundtrip(self, counterexample_char):
        c = counterexample_char
        back = character_from_json(c.ears, {"modulus": 2, "rule": {"kind": "a1coset"}})
        assert isinstance(back.rule, ClassRule) and back == c
        assert c.to_json()["rule"]["kind"] == "class"
        assert character_from_json(c.ears, c.to_json()) == c

    def test_table_roundtrip(self, a2_nu1):
        hom = standard_hom_character(a2_nu1, (1, 0, 1), 2)
        table = table_restriction(hom, 1)
        back = character_from_json(a2_nu1, table.to_json())
        assert back.rule.entries == table.rule.entries

    def test_constructors_take_only_what_json_reads_back(self, a2_nu1, counterexample_char):
        hom = standard_hom_character(a2_nu1, (1, 0, 1), 2)
        table = table_restriction(hom, 1)
        (root, exp), *rest = table.rule.entries
        (root6, exp6), *rest6 = counterexample_char.rule.entries
        for build in (
            lambda: standard_hom_character(a2_nu1, (1, 0, 1), 2.5),
            lambda: standard_hom_character(a2_nu1, (1.0, 0, 1), 2),
            lambda: Character(a2_nu1, 2, LatticeHomRule(hom.rule.basis, (1, 0, True))),
            lambda: Character(a2_nu1, 2, TableRule(1, ((root, float(exp)), *rest))),
            lambda: Character(counterexample_char.ears, 2, ClassRule(
                counterexample_char.rule.period, ((root6, float(exp6)), *rest6))),
            lambda: Character(counterexample_char.ears, 2, ClassRule(
                (2.0,) + counterexample_char.rule.period[1:], counterexample_char.rule.entries)),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                build()
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            standard_hom_character(a2_nu1, (1, 0, 1), 0)
        for c in (counterexample_char, hom, table):
            assert character_from_json(c.ears, json.loads(json.dumps(c.to_json()))) == c
