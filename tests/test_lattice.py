import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference
import lattice_reference
from enumeration_reference import index_of_sublattice
from lattice_reference import matmul
from ears.base import Window
from ears.characters import Character, coset_rule
from ears.finite import FiniteType
from ears.lattice import (
    IntLattice,
    Semilattice,
    det,
    inverse_unimodular,
    snf,
    solve_mod,
    sum_semilattices,
)
from ears.system import EarsSpec, build_ears
from ears.torus import LieTorus, TorusAutomorphism, diagonal_from_hom

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def square(data, n, lo=-3, hi=3):
    return [[data.draw(st.integers(lo, hi)) for _ in range(n)] for _ in range(n)]


@st.composite
def unimodular(draw, n):
    """Identity scrambled by random integer row operations and a row permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = draw(st.integers(-3, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return [m[i] for i in draw(st.permutations(range(n)))]


def check_snf_contract(mat):
    u, d, v = snf(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    assert matmul(matmul(u, mat), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return u, d, v


class TestSnf:
    def test_already_diagonal(self):
        _, d, _ = snf([[2, 0], [0, 2]])
        assert d == ((2, 0), (0, 2))

    def test_row_column_elimination(self):
        # hand elimination: swap columns, clear, rescale -> diag(1, 4)
        _, d, _ = snf([[2, 1], [0, 2]])
        assert d == ((1, 0), (0, 4))

    def test_zero_matrix(self):
        _, d, _ = snf([[0]])
        assert d == ((0,),)

    def test_empty(self):
        u, d, v = snf([])
        assert u == () and d == () and v == ()

    def test_rectangular(self):
        check_snf_contract([[2, 4, 6], [4, 8, 10]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            snf([[1, 2], [3]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_contract_random(self, rows, cols, data):
        mat = [
            [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
        ]
        check_snf_contract(mat)


@st.composite
def oracle_systems(draw):
    """A matrix and a right-hand side: tall-thin up to 300 x 7, wide up to
    7 x 300 (the shape `generates` sees), small ones with larger entries,
    all-zero and empty ones, some rows and columns zeroed.  Large matrices
    are filled from a drawn seed."""
    kind = draw(st.sampled_from(("tall", "wide", "small", "zero", "empty")))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "empty":
        return [], []
    if kind == "tall":
        rows, cols, bound = draw(st.integers(1, 300)), draw(st.integers(1, 7)), 3
    elif kind == "wide":
        rows, cols, bound = draw(st.integers(1, 7)), draw(st.integers(1, 300)), 3
    else:
        rows, cols, bound = draw(st.integers(1, 5)), draw(st.integers(0, 5)), 9
    density = 0.0 if kind == "zero" else draw(st.sampled_from((0.2, 0.5, 1.0)))
    mat = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        mat[i] = [0] * cols
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)) if cols else ():
        for row in mat:
            row[j] = 0
    if draw(st.booleans()):
        # a consistent system over Z, so SAT verdicts are drawn as well
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(r * y for r, y in zip(row, x)) for row in mat]
    else:
        b = [rng.randint(-6, 6) for _ in range(rows)]
    return mat, b


class TestSparseCoreOracle:
    """The sparse-transform core against the dense SNF it replaced
    (tests/lattice_reference.py): the same (u, d, v), solutions and
    certificates."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_systems())
    def test_same_smith_form(self, system):
        mat, _ = system
        assert snf(mat) == lattice_reference.snf(mat)

    @settings(max_examples=150, deadline=None)
    @given(oracle_systems())
    def test_same_solution_or_certificate(self, system):
        mat, b = system
        dense = lattice_reference.snf(mat)
        for m in (1, 2, 3, 4, 6):
            x, cert = lattice_reference._solve_snf(dense, b, m)
            res = solve_mod(mat, b, m)
            if x is None:
                assert not res.sat and res.certificate == cert
            else:
                assert res.solution == tuple(val % m for val in x)


@st.composite
def bases_and_vectors(draw, n, bound):
    """An n x n matrix with entries in [-bound, bound], filled from a drawn
    seed, and vectors to solve for in the lattice its columns generate:
    lattice points, lattice points moved by one unit, and random vectors."""
    rng = draw(st.randoms(use_true_random=False))
    basis = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    vectors = []
    for _ in range(3):
        x = [rng.randint(-3, 3) for _ in range(n)]
        point = [sum(b * y for b, y in zip(row, x)) for row in basis]
        moved = list(point)
        moved[rng.randrange(n)] += 1
        vectors += [point, moved, [rng.randint(-9, 9) for _ in range(n)]]
    return basis, vectors


def integral(x):
    return tuple(int(t) for t in x) if all(t.denominator == 1 for t in x) else None


class TestCoordsOracle:
    """`IntLattice.coords` reads one Bareiss pass.  The over-Z back-substitution
    through the dense Smith form it replaced (tests/lattice_reference.py) is its
    oracle on bases where that form stays small: 5 x 5 in [-9, 9], 6 x 6 in
    [-4, 4] and 10 x 10 in [-1, 1].  On some 6 x 6 bases in [-9, 9] its entries
    already grow to hundreds of bits and it runs for seconds, so there and
    beyond a Fraction solve is the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(bases_and_vectors(5, 9), bases_and_vectors(6, 4),
                     bases_and_vectors(10, 1)))
    def test_matches_dense_smith_solve(self, drawn):
        basis, vectors = drawn
        if fraction_reference.det(basis) == 0:
            with pytest.raises(ValueError, match="nonzero determinant"):
                IntLattice(basis)
            return
        lat = IntLattice(basis)
        dense = lattice_reference.snf(basis)
        for v in vectors:
            assert lat.coords(v) == lattice_reference._solve_snf(dense, v, 0)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(bases_and_vectors(6, 9), bases_and_vectors(8, 9),
                     bases_and_vectors(12, 9)))
    def test_dense_bases_match_fraction_solve(self, drawn):
        basis, vectors = drawn
        d = det(basis)
        assert d == fraction_reference.det(basis)
        if d == 0:
            with pytest.raises(ValueError, match="nonzero determinant"):
                IntLattice(basis)
            return
        lat = IntLattice(basis)
        for v in vectors:
            assert lat.coords(v) == integral(fraction_reference.solve(basis, v))


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_matches_fraction_oracle(self, n, data):
        mat = square(data, n)
        assert det(mat) == fraction_reference.det(mat)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_large_entries_match_fraction_oracle(self, n, data):
        mat = square(data, n, -10**6, 10**6)
        assert det(mat) == fraction_reference.det(mat)

    def test_zero_pivots_need_swaps(self):
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det([[1, 2]])


class TestInverseUnimodular:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(unimodular))
    def test_matches_fraction_oracle(self, m):
        inv = inverse_unimodular(m)
        assert inv == fraction_reference.inverse_unimodular(m)
        n = len(m)
        assert matmul(m, inv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_matrices_agree_with_oracle(self, n, data):
        m = square(data, n, -2, 2)
        try:
            expected = fraction_reference.inverse_unimodular(m)
        except ValueError:
            with pytest.raises(ValueError):
                inverse_unimodular(m)
        else:
            assert inverse_unimodular(m) == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            inverse_unimodular([[1, 0]])


class TestSolveMod:
    def test_identity_system(self):
        res = solve_mod([[1, 0], [0, 1]], [5, 9], 7)
        assert res.sat and res.solution == (5, 2)

    def test_even_cannot_be_odd(self):
        res = solve_mod([[2]], [1], 2)
        assert not res.sat
        assert res.certificate == (1,)

    def test_modulus_one_always_sat(self):
        res = solve_mod([[3, 5]], [4], 1)
        assert res.sat

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_mod([[1, 2]], [1, 2], 3)

    def test_certificate_is_checkable(self):
        a = [[2, 0], [0, 3], [2, 3]]
        res = solve_mod(a, [1, 0, 0], 4)
        assert not res.sat
        r = res.certificate
        combo = [sum(r[i] * a[i][j] for i in range(3)) for j in range(2)]
        assert all(x % 4 == 0 for x in combo)
        assert sum(r[i] * b for i, b in enumerate([1, 0, 0])) % 4 != 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.data())
    def test_always_solution_or_certificate(self, rows, cols, m, data):
        a = [
            [data.draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)
        ]
        b = [data.draw(st.integers(-6, 6)) for _ in range(rows)]
        res = solve_mod(a, b, m)
        if res.sat:
            x = res.solution
            assert all(
                (sum(a[i][j] * x[j] for j in range(cols)) - b[i]) % m == 0
                for i in range(rows)
            )
        else:
            r = res.certificate
            ra = [sum(r[i] * a[i][j] for i in range(rows)) for j in range(cols)]
            assert all(x % m == 0 for x in ra)
            assert sum(r[i] * b[i] for i in range(rows)) % m != 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 12), st.data())
    def test_inexact_certificate_cannot_be_made_exact(self, cols, extra, m, data):
        # An UNSAT certificate r either cancels the rows exactly, or comes from
        # an SNF entry d_i > 1 and r.A / m lies outside the integer row span,
        # so no integer relation among the rows can repair it.
        rows = cols + extra
        a = [[data.draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        b = [data.draw(st.integers(-6, 6)) for _ in range(rows)]
        res = solve_mod(a, b, m)
        if res.sat:
            return
        ra = [sum(r * row[j] for r, row in zip(res.certificate, a)) for j in range(cols)]
        if not any(ra):
            return
        _, d, _ = snf(a)
        assert any(d[i][i] > 1 for i in range(cols))
        transposed = [[a[i][j] for i in range(rows)] for j in range(cols)]
        dense = lattice_reference.snf(transposed)
        assert lattice_reference._solve_snf(dense, [x // m for x in ra], 0)[0] is None

    def test_exact_certificate_preferred(self):
        # the first failing SNF row (d = 2) only cancels mod 2; the second
        # (d = 0) cancels exactly and is returned instead
        res = solve_mod([[2], [0]], [1, 1], 2)
        assert res.certificate == (0, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 12), st.data())
    def test_exact_certificate_found_when_one_exists(self, cols, extra, m, data):
        rows = cols + extra
        a = [[data.draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        b = [data.draw(st.integers(-6, 6)) for _ in range(rows)]
        u, d, _ = snf(a)
        c = [sum(x * y for x, y in zip(row, b)) for row in u]
        exact_rows = [
            i for i in range(rows) if (i >= cols or d[i][i] == 0) and c[i] % m
        ]
        res = solve_mod(a, b, m)
        if not exact_rows:
            return
        assert not res.sat
        r = res.certificate
        assert not any(sum(x * row[j] for x, row in zip(r, a)) for j in range(cols))
        assert sum(x * y for x, y in zip(r, b)) % m

    def test_solution_check_survives_optimize(self):
        script = textwrap.dedent(
            """
            import ears.lattice as lattice

            if __debug__:
                raise SystemExit("interpreter is not running with -O")
            real_smith = lattice._smith

            def corrupted_smith(a):
                # every entry of v plus one; v is stored as sparse columns
                u, diag, v = real_smith(a)
                return u, diag, [{i: vj.get(i, 0) + 1 for i in range(len(v))} for vj in v]

            lattice._smith = corrupted_smith
            try:
                res = lattice.solve_mod([[1, 0], [0, 1]], [1, 1], 5)
            except AssertionError:
                raise SystemExit(0)
            raise SystemExit(f"solve_mod returned {res}")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestIntLattice:
    def test_standard_coords(self):
        lat = IntLattice.standard(3)
        assert lat.coords((1, -2, 5)) == (1, -2, 5)
        assert lat.contains((0, 0, 0))

    def test_sublattice_membership(self):
        lat = IntLattice(((2, 1), (0, 3)))
        assert lat.contains((2, 0))
        assert lat.coords((2, 0)) is not None
        assert not lat.contains((1, 0))

    def test_coords_roundtrip(self):
        lat = IntLattice(((2, 1), (0, 3)))
        for x in [(0, 0), (1, 2), (-3, 4)]:
            v = lat.from_coords(x)
            assert lat.coords(v) == x

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            IntLattice(((1, 2), (2, 4)))

    def test_index_of_doubled(self):
        lat = IntLattice.standard(3)
        sub = IntLattice(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert index_of_sublattice(lat, sub) == 8
        assert abs(det(sub.basis)) // abs(det(lat.basis)) == 8

    def test_dim_zero(self):
        lat = IntLattice.standard(0)
        assert lat.contains(())
        assert lat.coords(()) == ()

    def test_json_roundtrip(self):
        lat = IntLattice(((2, 1), (0, 3)))
        assert IntLattice.from_json(lat.to_json()) == lat


class TestSemilattice:
    def test_trivial_coset_class(self):
        s = Semilattice.standard(2)
        assert fraction_reference.coset_class(s, (0, 0)) == 0

    def test_shift_by_two_lattice(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        tau1, tau2 = (1, 0), (0, 1)
        shifted = tuple(a + 2 * b for a, b in zip(tau1, tau2))
        assert fraction_reference.coset_class(s, shifted) == 1

    def test_absent_class_is_none(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert fraction_reference.coset_class(s, (1, 1)) is None
        assert not s.contains((1, 1))

    def test_outside_lattice_raises(self):
        s = Semilattice(IntLattice(((2,),)), ((0,), (2,)))
        with pytest.raises(ValueError):
            fraction_reference.coset_class(s, (1,))
        assert not s.contains((1,))

    def test_contains_basics(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert s.contains((0, 0))
        assert s.contains((1, 0))
        assert s.contains((3, 2))
        assert not s.contains((1, 1))

    def test_index_examples(self):
        assert Semilattice.standard(1).index == 1
        assert Semilattice.standard(2).index == 3
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert s.index == 2
        assert s.coset_count == 3

    def test_index_bounds(self):
        for s in (
            Semilattice.standard(1),
            Semilattice.standard(2),
            Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1))),
            Semilattice(IntLattice.standard(3), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ):
            assert s.dim <= s.index <= 2 ** s.dim
            assert s.coset_count <= 2 ** s.dim

    def test_first_rep_must_be_zero(self):
        with pytest.raises(ValueError):
            Semilattice(IntLattice.standard(1), ((1,), (0,)))

    def test_duplicate_classes_rejected(self):
        with pytest.raises(ValueError):
            Semilattice(IntLattice.standard(1), ((0,), (1,), (3,)))

    def test_non_spanning_rejected(self):
        with pytest.raises(ValueError):
            Semilattice(IntLattice.standard(2), ((0, 0), (1, 0)))

    def test_closure_holds(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert lattice_reference.closure_holds(s)

    def test_equivalence_of_class_and_difference(self):
        # same class exactly when the difference lands in 2L
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        pts = [(0, 0), (1, 0), (2, 0), (1, 2), (0, 1), (2, 2), (-1, 0)]
        for v in pts:
            for u in pts:
                diff = tuple(a - b for a, b in zip(v, u))
                in_two_l = all(x % 2 == 0 for x in diff)
                assert (s.key(v) == s.key(u)) == in_two_l

    def test_json_roundtrip(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert Semilattice.from_json(s.to_json()) == s

    def test_dim_zero(self):
        s = Semilattice.standard(0)
        assert s.coset_count == 1
        assert s.contains(())


class TestSumSemilattices:
    def test_doubling_vanishes(self):
        s = Semilattice.standard(1)
        assert sum_semilattices(s, s) == frozenset({(0,), (1,)})

    def test_zero_semilattice_is_identity(self):
        s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
        assert s.class_index.keys() <= sum_semilattices(s, s)

    def test_ambient_mismatch(self):
        bigger = Semilattice.standard(1)
        smaller = Semilattice(IntLattice(((2,),)), ((0,), (2,)))
        with pytest.raises(ValueError):
            sum_semilattices(smaller, bigger)

    def test_counterexample_support_has_29_classes(self, counterexample_char):
        s = counterexample_char.ears.S
        classes = sum_semilattices(s, s)
        # 0, seven singles, and all 21 pairwise sums stay distinct
        assert len(classes) == 1 + 7 + 21


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntLattice(((1.7,),)),
        lambda: IntLattice.standard(2).coords((1.0, 2)),
        lambda: Semilattice(IntLattice.standard(1), ((0,), (1.5,))),
        lambda: snf(((1.5,),)),
        lambda: det(((1.5,),)),
        lambda: solve_mod(((1.5, 0),), (1,), 2),
        lambda: solve_mod(((1, 0),), (1.5,), 2),
        lambda: Window(1.5),
        lambda: FiniteType("A", 1.0),
        lambda: EarsSpec.rank_one(1.0, Semilattice.standard(1)),
        lambda: build_ears(EarsSpec.rank_one(1, Semilattice.standard(1))).root_from_coords(
            (1.0, 0)
        ),
        lambda: LieTorus(2.5, 1, 2),
        lambda: LieTorus(2, 1, 2).e(0, 1, (1.5,)),
        lambda: diagonal_from_hom(LieTorus(2, 1, 2), (1.5, 0, 1)),
        lambda: TorusAutomorphism(2, 1, 2, False, (0.5, 0, 0)),
        lambda: Character(
            build_ears(EarsSpec.rank_one(1, Semilattice.standard(1))), 2.0,
            coset_rule(build_ears(EarsSpec.rank_one(1, Semilattice.standard(1)))),
        ),
    ],
    ids=[
        "IntLattice", "IntLattice.coords", "Semilattice", "snf", "det", "solve_mod", "solve_mod rhs", "Window",
        "FiniteType",
        "EarsSpec", "root_from_coords", "LieTorus", "LieTorus.e", "diagonal_from_hom",
        "TorusAutomorphism", "Character",
    ],
)
def test_library_constructors_take_ints_only(build):
    """A float is rejected by `json_int`, never truncated or coerced to an int."""
    with pytest.raises(ValueError, match="must be an integer"):
        build()
