"""The finite root systems, read only through their integer tables.

A root is its simple-root coordinates, so the simple roots are the unit
vectors.  Norms come from the Gram matrix, pairings and reflections from
`pairing_table` and `reflect_table`, and root strings are scanned on
`coords` and the zero vector.
"""

from operator import add

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

# D4: e1 + e2 (the highest root s1 + 2 s2 + s3 + s4) and e3 + e4 (s4)
D4_ORTHOGONAL = ((1, 2, 1, 1), (0, 0, 0, 1))


@pytest.fixture(scope="module")
def systems():
    return {name: build_finite(FiniteType(name[0], int(name[1:]))) for name in COUNTS}


def neg(c):
    return tuple(-x for x in c)


def norm(f, c):
    return sum(x * g * y for x, row in zip(c, f.gram) for g, y in zip(row, c))


def pairing(f, b, a):
    """2(b, a) / (a, a) from the table; b may be the zero vector."""
    if not any(b):
        return 0
    return f.pairing_table[f.coord_index[b]][f.coord_index[a]]


def reflect(f, a, b):
    return f.coords[f.reflect_table[f.coord_index[a]][f.coord_index[b]]]


def simple(f):
    return [tuple(int(i == j) for j in range(f.rank)) for i in range(f.rank)]


def string_members(f, a, b, reach):
    """The n with |n| <= reach and b + n a in coords or zero."""
    zero = (0,) * f.rank
    return {
        n for n in range(-reach, reach + 1)
        if (v := tuple(x + n * y for x, y in zip(b, a))) == zero or v in f.coord_index
    }


def root_string(f, a, b):
    """(d, u) for the a-string through b in coords or zero, checked unbroken
    and with d - u equal to the pairing."""
    members = string_members(f, a, b, 8)
    assert 0 in members
    d, u = -min(members), max(members)
    assert members == set(range(-d, u + 1)), "broken root string"
    assert d - u == pairing(f, b, a)
    return d, u


def dominant(f, short):
    """The unique root of the given length pairing non-negatively with every simple root."""
    pool = [c for c in f.coords if (c in f.short_coords) == short]
    if not pool:
        return None
    found = [c for c in pool if all(pairing(f, c, s) >= 0 for s in simple(f))]
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_root_counts(systems, name):
    total, short, long_ = COUNTS[name]
    f = systems[name]
    assert len(f.coords) == len(f.coord_index) == total
    assert len(f.short_coords) == short
    assert len(f.coords) - len(f.short_coords) == long_


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3), ("G", 4), ("X", 2)],
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(ValueError):
        FiniteType(family, rank)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_negation_closure_and_reduced(systems, name):
    f = systems[name]
    for c in f.coords:
        assert neg(c) in f.coord_index
        assert tuple(2 * x for x in c) not in f.coord_index


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_norms_match_lacing(systems, name):
    f = systems[name]
    k = f.type.lacing
    assert all(row == col for row, col in zip(f.gram, zip(*f.gram)))
    for c in f.coords:
        assert norm(f, c) in (2, 2 * k)
        assert (norm(f, c) == 2) == (c in f.short_coords)


class TestPairing:
    def test_self_pairing_is_two(self, systems):
        for f in systems.values():
            assert all(f.pairing_table[i][i] == 2 for i in range(len(f.coords)))

    def test_a2_adjacent_simples(self, systems):
        f = systems["A2"]
        s1, s2 = simple(f)
        assert pairing(f, s1, s2) == -1
        assert pairing(f, s2, s1) == -1

    def test_d4_orthogonal_pair(self, systems):
        f = systems["D4"]
        a, b = D4_ORTHOGONAL
        assert pairing(f, a, b) == 0
        assert pairing(f, b, a) == 0

    def test_pairing_range(self, systems):
        for f in systems.values():
            for b in f.coords:
                for a in f.coords:
                    c = pairing(f, b, a)
                    if b == a:
                        assert c == 2
                    elif b == neg(a):
                        assert c == -2
                    else:
                        assert c in (-3, -2, -1, 0, 1, 2, 3)


class TestReflection:
    def test_reflection_negates_self(self, systems):
        for f in systems.values():
            for c in f.coords:
                assert reflect(f, c, c) == neg(c)

    def test_a2_simple_reflection(self, systems):
        f = systems["A2"]
        s1, s2 = simple(f)
        assert reflect(f, s1, s2) == (1, 1)

    def test_orthogonal_fixed(self, systems):
        f = systems["D4"]
        a, b = D4_ORTHOGONAL
        assert reflect(f, a, b) == b
        assert reflect(f, b, a) == a

    @pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "G2", "F4"])
    def test_closure_and_involution(self, systems, name):
        f = systems[name]
        for a in f.coords:
            for b in f.coords:
                image = tuple(y - pairing(f, b, a) * x for x, y in zip(a, b))
                assert image in f.coord_index
                assert reflect(f, a, b) == image
                assert reflect(f, a, image) == b

    def test_tables_agree_with_direct_computation(self, systems):
        """Both tables against 2(b, a) / (a, a) computed from the Gram matrix."""
        for f in (systems["B2"], systems["G2"]):
            def inner(x, y):
                return sum(u * g * v for u, row in zip(x, f.gram) for g, v in zip(row, y))

            for a in f.coords:
                for b in f.coords:
                    c, rem = divmod(2 * inner(b, a), inner(a, a))
                    assert rem == 0
                    assert pairing(f, b, a) == c
                    assert reflect(f, a, b) == tuple(y - c * x for x, y in zip(a, b))


class TestRootString:
    def test_a2_simples(self, systems):
        f = systems["A2"]
        s1, s2 = simple(f)
        assert root_string(f, s1, s2) == (0, 1)

    def test_through_itself(self, systems):
        f = systems["A2"]
        for c in f.coords:
            assert root_string(f, c, c) == (2, 0)

    def test_orthogonal_simply_laced(self, systems):
        f = systems["D4"]
        a, b = D4_ORTHOGONAL
        assert root_string(f, a, b) == (0, 0)

    def test_through_zero(self, systems):
        f = systems["B2"]
        for a in f.coords:
            assert root_string(f, a, (0, 0)) == (1, 1)

    @pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
    def test_string_identity_exhaustive(self, systems, name):
        # root_string itself asserts contiguity and d - u = pairing
        f = systems[name]
        for a in f.coords:
            for b in (*f.coords, (0,) * f.rank):
                root_string(f, a, b)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_string_steps_at_most_three(systems, name):
    """b + n a in coords or zero, for a root a and b in coords or zero, forces |n| <= 3.

    With M the largest coordinate of a root, |n| > 2M puts the coordinate
    where a is nonzero beyond M, so scanning |n| <= 2M finds every such n.
    The window root-string check of `ears.system` probes only |n| <= 3.
    """
    f = systems[name]
    reach = 2 * max(abs(x) for c in f.coords for x in c)
    bases = {*f.coords, (0,) * f.rank}
    steps = set()
    for a in f.coords:
        multiples = [(n, tuple(n * x for x in a)) for n in range(-reach, reach + 1)]
        steps.update(
            n for b in bases for n, m in multiples if tuple(map(add, b, m)) in bases
        )
    assert max(map(abs, steps)) == (3 if name == "G2" else 2)


class TestHighestRoots:
    def test_b2(self, systems):
        # s1 long, s2 short: e1 = s1 + s2 and e1 + e2 = s1 + 2 s2
        f = systems["B2"]
        assert dominant(f, short=True) == (1, 1)
        assert dominant(f, short=False) == (1, 2)

    def test_a2(self, systems):
        f = systems["A2"]
        assert dominant(f, short=True) == (1, 1)
        assert dominant(f, short=False) is None

    def test_g2_difference_is_root(self, systems):
        f = systems["G2"]
        ts, tl = dominant(f, short=True), dominant(f, short=False)
        assert tuple(a - b for a, b in zip(tl, ts)) in f.coord_index

    @pytest.mark.parametrize("name", ["B2", "B3", "C3", "F4", "G2"])
    def test_dominance(self, systems, name):
        f = systems[name]
        ts, tl = dominant(f, short=True), dominant(f, short=False)
        for s in simple(f):
            assert pairing(f, ts, s) >= 0
            assert pairing(f, tl, s) >= 0


def test_b_type_short_sums_are_long(systems):
    f = systems["B3"]
    for a in f.short_coords:
        for b in f.short_coords:
            if a == b or a == neg(b):
                continue
            for combo in (
                tuple(x + y for x, y in zip(a, b)),
                tuple(x - y for x, y in zip(a, b)),
            ):
                assert combo in f.coord_index
                assert norm(f, combo) == 4


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_simple_coords_table_matches_fraction_oracle(systems, name):
    """Coordinates by Gauss-Jordan on the rational model, and its Gram matrix."""
    f = systems[name]
    ref = fraction_reference.FractionFinite(f.type)
    expected = [fraction_reference.simple_coords(ref, r) for r in ref.roots]
    assert f.coord_index == {c: i for i, c in enumerate(expected)}
    s = ref.simple_roots
    assert f.gram == tuple(tuple(ref.inner(a, b) for b in s) for a in s)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_integer_construction_matches_fraction_oracle(systems, name):
    f = systems[name]
    ref = fraction_reference.FractionFinite(f.type)
    assert all(type(x) is int for c in f.coords for x in c)
    assert all(type(x) is int for row in f.gram for x in row)
    assert f.coords == ref.coords()
    assert f.short_coords == ref.short_coords()
    pairs = ref.pairing_table()
    assert f.pairing_table == pairs
    assert f.reflect_table == ref.reflect_table(pairs)
