from fractions import Fraction

import pytest

import fraction_reference
from ears.finite import FiniteType, build_finite

COUNTS = {
    "A1": (2, 2, 0),
    "A2": (6, 6, 0),
    "A3": (12, 12, 0),
    "B2": (8, 4, 4),
    "B3": (18, 6, 12),
    "C3": (18, 12, 6),
    "C4": (32, 24, 8),
    "D4": (24, 24, 0),
    "D5": (40, 40, 0),
    "E6": (72, 72, 0),
    "E7": (126, 126, 0),
    "E8": (240, 240, 0),
    "F4": (48, 24, 24),
    "G2": (12, 6, 6),
}


@pytest.fixture(scope="module")
def systems():
    return {name: build_finite(FiniteType.parse(name)) for name in COUNTS}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_root_counts(systems, name):
    total, short, long_ = COUNTS[name]
    f = systems[name]
    assert len(f.roots) == total
    assert len(f.short_roots) == short
    assert len(f.long_roots) == long_


@pytest.mark.parametrize(
    "family,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3), ("G", 4)]
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(ValueError):
        FiniteType(family, rank)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_negation_closure_and_reduced(systems, name):
    f = systems[name]
    for r in f.roots:
        assert tuple(-x for x in r) in f.root_index
        assert tuple(2 * x for x in r) not in f.root_index


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_norms_match_lacing(systems, name):
    f = systems[name]
    k = f.type.lacing
    for r in f.roots:
        assert f.norm(r) in (Fraction(2), Fraction(2 * k))
    for r in f.short_roots:
        assert f.norm(r) == 2


class TestPairing:
    def test_self_pairing_is_two(self, systems):
        for f in systems.values():
            r = f.roots[0]
            assert f.pairing(r, r) == 2

    def test_a2_adjacent_simples(self, systems):
        f = systems["A2"]
        s1, s2 = f.simple_roots
        assert f.pairing(s1, s2) == -1
        assert f.pairing(s2, s1) == -1

    def test_d4_orthogonal_pair(self, systems):
        f = systems["D4"]
        a = tuple(map(Fraction, (1, 1, 0, 0)))
        b = tuple(map(Fraction, (0, 0, 1, 1)))
        assert f.pairing(a, b) == 0

    def test_pairing_range(self, systems):
        for name in ("A2", "B2", "C3", "G2", "F4"):
            f = systems[name]
            for b in f.roots:
                for a in f.roots:
                    c = f.pairing(b, a)
                    if b == a:
                        assert c == 2
                    elif b == tuple(-x for x in a):
                        assert c == -2
                    else:
                        assert c in (-3, -2, -1, 0, 1, 2, 3)

    def test_zero_direction_rejected(self, systems):
        f = systems["A2"]
        with pytest.raises(ValueError):
            f.pairing(f.roots[0], tuple(map(Fraction, (0, 0, 0))))


class TestReflection:
    def test_reflection_negates_self(self, systems):
        for f in systems.values():
            r = f.roots[0]
            assert f.reflect(r, r) == tuple(-x for x in r)

    def test_a2_simple_reflection(self, systems):
        f = systems["A2"]
        s1, s2 = f.simple_roots
        assert f.reflect(s1, s2) == tuple(a + b for a, b in zip(s1, s2))

    def test_orthogonal_fixed(self, systems):
        f = systems["D4"]
        a = tuple(map(Fraction, (1, 1, 0, 0)))
        b = tuple(map(Fraction, (0, 0, 1, 1)))
        assert f.reflect(a, b) == b

    @pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "G2", "F4"])
    def test_closure_and_involution(self, systems, name):
        f = systems[name]
        for a in f.roots:
            for b in f.roots:
                image = f.reflect(a, b)
                assert image in f.root_index
                assert f.reflect(a, image) == b

    def test_tables_agree_with_direct_computation(self, systems):
        f = systems["B2"]
        for i, a in enumerate(f.roots):
            for j, b in enumerate(f.roots):
                assert f.pairing_table[j][i] == f.pairing(b, a)
                assert f.roots[f.reflect_table[i][j]] == f.reflect(a, b)


class TestRootString:
    def test_a2_simples(self, systems):
        f = systems["A2"]
        s1, s2 = f.simple_roots
        assert f.root_string(s1, s2) == (0, 1)

    def test_through_itself(self, systems):
        f = systems["A2"]
        r = f.roots[0]
        assert f.root_string(r, r) == (2, 0)

    def test_orthogonal_simply_laced(self, systems):
        f = systems["D4"]
        a = tuple(map(Fraction, (1, 1, 0, 0)))
        b = tuple(map(Fraction, (0, 0, 1, 1)))
        assert f.root_string(a, b) == (0, 0)

    def test_through_zero(self, systems):
        f = systems["B2"]
        zero = tuple(map(Fraction, (0, 0)))
        for a in f.roots:
            assert f.root_string(a, zero) == (1, 1)

    @pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
    def test_string_identity_exhaustive(self, systems, name):
        # root_string itself asserts contiguity and d - u = pairing
        f = systems[name]
        for a in f.roots:
            for b in f.roots:
                d, u = f.root_string(a, b)
                assert d - u == f.pairing(b, a)


class TestHighestRoots:
    def test_b2(self, systems):
        f = systems["B2"]
        ts, tl = f.highest_short, f.highest_long
        assert ts == (Fraction(1), Fraction(0))
        assert tl == (Fraction(1), Fraction(1))

    def test_a2(self, systems):
        f = systems["A2"]
        ts, tl = f.highest_short, f.highest_long
        s1, s2 = f.simple_roots
        assert ts == tuple(a + b for a, b in zip(s1, s2))
        assert tl is None

    def test_g2_difference_is_root(self, systems):
        f = systems["G2"]
        ts, tl = f.highest_short, f.highest_long
        assert f.is_root(tuple(a - b for a, b in zip(tl, ts)))

    @pytest.mark.parametrize("name", ["B2", "B3", "C3", "F4", "G2"])
    def test_dominance(self, systems, name):
        f = systems[name]
        ts, tl = f.highest_short, f.highest_long
        for s in f.simple_roots:
            assert f.pairing(ts, s) >= 0
            assert f.pairing(tl, s) >= 0


def test_b_type_short_sums_are_long(systems):
    f = systems["B3"]
    for a in f.short_roots:
        for b in f.short_roots:
            if a == b or a == tuple(-x for x in b):
                continue
            for combo in (
                tuple(x + y for x, y in zip(a, b)),
                tuple(x - y for x, y in zip(a, b)),
            ):
                assert combo in f.root_index
                assert f.norm(combo) == 4


def test_simple_coords_roundtrip(systems):
    for name in ("A3", "B3", "G2", "F4", "E6"):
        f = systems[name]
        for r in f.roots:
            coords = f.simple_coords_table[r]
            rebuilt = tuple(
                sum(Fraction(c) * s[i] for c, s in zip(coords, f.simple_roots))
                for i in range(f.dim)
            )
            assert rebuilt == r


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_simple_coords_table_matches_fraction_oracle(systems, name):
    f = systems[name]
    expected = {r: fraction_reference.simple_coords(f, r) for r in f.roots}
    assert f.simple_coords_table == expected


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_integer_construction_matches_fraction_oracle(systems, name):
    """Roots are the rational roots times 2 for E and F, times 1 otherwise."""
    f = systems[name]
    ref = fraction_reference.FractionFinite(f.type)
    factor = 2 if f.type.family in ("E", "F") else 1
    assert all(type(x) is int for r in f.roots for x in r)
    assert f.roots == tuple(tuple(factor * x for x in r) for r in ref.roots)
    assert f.coords == ref.coords()
    assert f.short_coords == ref.short_coords()
    pairs = ref.pairing_table()
    assert f.pairing_table == pairs
    assert f.reflect_table == ref.reflect_table(pairs)


def test_parse_type():
    assert FiniteType.parse("b3") == FiniteType("B", 3)
    with pytest.raises(ValueError):
        FiniteType.parse("X2")
    with pytest.raises(ValueError):
        FiniteType.parse("A")
