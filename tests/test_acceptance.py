"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything here is exact integer arithmetic; the only tolerances
are the wall-clock budgets stated alongside each criterion.
"""

import contextlib
import io
import itertools
import json
import random
import time

import pytest

import enumeration_reference
import lattice_reference
import torus_reference
from ears.base import Window
from ears.characters import (
    Character,
    TableRule,
    build_a1_counterexample,
    character_from_json,
    coset_rule,
    extend_ind_zero,
    extendability,
    recheck_witness,
    standard_hom_character,
    verify_character,
)
from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice
from ears.system import (
    EarsSpec,
    build_ears,
    enumerate_roots,
    invariants,
    verify_axioms,
)
from ears.torus import (
    CycScalar,
    TorusAutomorphism,
    TorusElement,
    build_torus,
    chevalley,
    diagonal_from_hom,
    extract_core_character,
    verify_automorphism,
)
from ears.cli import main
from ears.weyl import check_reflectable, decompose, minimal_reflectable_size

from conftest import SPEC_DIR
from weyl_reference import reflect


def report_line(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_counterexample_reproduction():
    """Non-extendable rank-one character: sum-free check, verification, UNSAT witness."""
    start = time.monotonic()
    char = build_a1_counterexample(6)
    e = char.ears

    # (a) exhaustive sum-free condition over index subsets of sizes 3..6, and
    # the exact class-level check of the coset rule
    assert enumeration_reference.sum_free_violation_by_subsets(e.S) is None
    subsets = sum(
        1 for k in (3, 4, 5, 6) for _ in itertools.combinations(range(1, 8), k)
    )
    assert subsets == 98
    assert coset_rule(e) == char.rule

    # (b) exhaustive verification at window 1, randomized pairs at window 2
    report = verify_character(char, Window(1))
    assert report.ok and report.pairs_checked > 0
    rng = random.Random(20240810)
    roots2 = enumerate_roots(e, Window(2))
    exps = {r: char.eval(r).exponent for r in roots2}
    random_failures = 0
    checked = 0
    draws = 0
    while checked < 10000:
        draws += 1
        assert draws < 10 ** 6
        alpha = rng.choice(roots2)
        beta = rng.choice(roots2)
        total = e.add(alpha, beta)
        if not e.is_root(total):
            continue
        checked += 1
        if (exps[alpha] + exps[beta] - char.eval(total).exponent) % 2:
            random_failures += 1
    assert random_failures == 0

    # (c) UNSAT with an independently re-checkable witness
    result = extendability(char, Window(1))
    assert not result.sat
    ok, detail = recheck_witness(char, result.witness)
    assert ok
    assert all(x == 0 for x in detail["coord_sum"])
    assert detail["exponent_sum"] == 1

    elapsed = time.monotonic() - start
    report_line(
        1,
        f"counterexample verified ({report.pairs_checked} exhaustive pairs, "
        f"{checked} random pairs, UNSAT witness re-checked)",
        elapsed < 60,
        elapsed,
    )


def test_criterion_2_extension_roundtrip():
    """Index-zero extension recovers random homomorphisms from window restrictions."""
    start = time.monotonic()
    rng = random.Random(4001480)
    runs = 0
    for family_rank in (("A", 2), ("A", 3)):
        for nu in (1, 2):
            e = build_ears(EarsSpec.simply_laced(FiniteType(*family_rank), nu))
            n = e.rank + e.nullity
            base = [
                e.root_from_coords(tuple(int(i == j) for i in range(n)))
                for j in range(e.rank)
            ]
            for j in range(nu):
                coords = [0] * n
                coords[0] = 1
                coords[e.rank + j] = 1
                base.append(e.root_from_coords(tuple(coords)))
            assert check_reflectable(e, base, Window(3)).covered
            for m in (2, 3, 4):
                for _ in range(7):
                    values = tuple(rng.randrange(m) for _ in range(n))
                    hom = standard_hom_character(e, values, m)
                    entries = tuple(
                        (r, hom.eval(r).exponent)
                        for r in enumerate_roots(e, Window(3))
                    )
                    table = Character(e, m, TableRule(3, entries))
                    recovered = extend_ind_zero(table, base, Window(3))
                    for r in enumerate_roots(e, Window(3)):
                        assert recovered.eval(r).exponent == hom.eval(r).exponent
                    assert recovered._std_values == hom._std_values
                    runs += 1
    elapsed = time.monotonic() - start
    report_line(
        2,
        f"{runs} random homomorphisms recovered exactly over A2/A3, nullity 1..2, "
        "order 2..4",
        runs == 84 and elapsed < 600,
        elapsed,
    )


def test_criterion_3_reflectable_search_matches_index_formula():
    """Minimal reflectable sizes 2 / 3 / 4 match rank + nullity + index."""
    start = time.monotonic()
    cases = [
        ("affine", build_ears(EarsSpec.rank_one(1, Semilattice.standard(1))), 2),
        (
            "three cosets",
            build_ears(
                EarsSpec.rank_one(
                    2, Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
                )
            ),
            3,
        ),
        ("full lattice", build_ears(EarsSpec.rank_one(2, Semilattice.standard(2))), 4),
    ]
    results = []
    for name, e, expected in cases:
        case_start = time.monotonic()
        search = minimal_reflectable_size(e, Window(3), max_size=expected)
        case_elapsed = time.monotonic() - case_start
        inv = invariants(e)
        assert search.size == expected, name
        assert inv["refl_R"] == inv["lattice_rank"] + inv["ind_R"] == expected, name
        assert case_elapsed < 300, name
        results.append(f"{name}={search.size}")
    elapsed = time.monotonic() - start
    report_line(3, "minimal reflectable sizes " + ", ".join(results), True, elapsed)


def test_criterion_4_prefix_decompositions():
    """Every non-isotropic window root decomposes with prefixes re-checked as roots."""
    start = time.monotonic()
    affine = build_ears(EarsSpec.rank_one(1, Semilattice.standard(1)))
    a2 = build_ears(EarsSpec.simply_laced(FiniteType("A", 2), 1))
    setups = [
        (affine, [affine.root_from_coords((1, 0)), affine.root_from_coords((-1, 1))]),
        (
            a2,
            [
                a2.root_from_coords((1, 0, 0)),
                a2.root_from_coords((0, 1, 0)),
                a2.root_from_coords((-1, -1, 1)),
            ],
        ),
    ]
    total = 0
    for e, base in setups:
        assert check_reflectable(e, base, Window(3)).covered
        for r in enumerate_roots(e, Window(3)):
            if r.finite is None:
                continue
            dec = decompose(e, r, base, Window(3))
            assert dec.verify(e, r)  # every prefix a root, and the total r
            total += 1
    elapsed = time.monotonic() - start
    report_line(4, f"{total} window roots decomposed with root prefixes", True, elapsed)


def test_criterion_5_torus_suite():
    """Matrix realization: Jacobi, Chevalley, diagonal automorphisms, extraction."""
    start = time.monotonic()
    rng = random.Random(17)
    for ell, nu, m in ((2, 1, 4), (2, 2, 2)):
        t = build_torus(ell, nu, m)

        jac = torus_reference.jacobi_identity_report(t, Window(1))
        assert jac["ok"]

        tau = chevalley(t)
        assert verify_automorphism(t, tau, Window(2)).ok
        for x in t.graded_basis(Window(3)):
            assert tau.apply(tau.apply(x)) == x

        homs = [
            tuple(rng.randrange(m) for _ in range(ell + nu)) for _ in range(10)
        ]
        for hom in homs:
            psi = diagonal_from_hom(t, hom)
            assert verify_automorphism(t, psi, Window(2)).ok

        psi = diagonal_from_hom(t, homs[0])
        comp = torus_reference.compose(tau, psi)
        for x in t.graded_basis(Window(2)):
            assert comp.apply(comp.apply(x)) == x
        for lam in itertools.product(range(-2, 3), repeat=nu):
            for i in range(ell + 1):
                for j in range(ell + 1):
                    if i == j:
                        continue
                    image = comp.apply(t.e(i, j, lam))
                    assert len(image.terms) == 1
                    key, deg, _ = image.terms[0]
                    assert key == ("e", j, i) and deg == tuple(-x for x in lam)

        char, extraction = extract_core_character(t, psi, Window(2))
        assert all(v is True for v in extraction.values() if isinstance(v, bool))
        reference = standard_hom_character(t.ears, homs[0], m)
        for r in enumerate_roots(t.ears, Window(2)):
            assert char.eval(r).exponent == reference.eval(r).exponent
        assert verify_character(char, Window(2)).ok

    elapsed = time.monotonic() - start
    report_line(
        5,
        "torus suites for (2,1,4) and (2,2,2): Jacobi, involution, 10 diagonal "
        "homs each, composite order 2, extraction round-trip",
        elapsed < 120,
        elapsed,
    )


SHIPPED_SPECS = [
    ("affine_a1.json", 2),
    ("a1_nu2_full.json", 2),
    ("a1_nu2_three_coset.json", 2),
    ("a2_nu1.json", 2),
    ("a3_nu2.json", 1),
    ("b2_nu1_untwisted.json", 2),
    ("b2_nu2_twist1.json", 1),
    ("g2_nu1.json", 2),
    ("counterexample_nu6.json", 1),
]


@pytest.mark.parametrize("name,window", SHIPPED_SPECS)
def test_criterion_6_property_suite_per_spec(name, window):
    """Structural properties on every shipped example spec."""
    start = time.monotonic()
    with open(SPEC_DIR / name) as fh:
        e = build_ears(EarsSpec.from_json(json.load(fh)))
    w = Window(window)

    # semilattice closure on representatives
    assert lattice_reference.closure_holds(e.S)
    if e.L is not None:
        assert lattice_reference.closure_holds(e.L)

    # root strings, support, coupling, reducedness, indecomposability
    axioms = verify_axioms(e, w)
    assert axioms.ok, axioms.checks

    # reflection involution and classification preservation on window pairs
    roots = enumerate_roots(e, w)
    noniso = [r for r in roots if r.finite is not None]
    for alpha in noniso:
        for beta in roots:
            image = reflect(e, alpha, beta)
            assert reflect(e, alpha, image) == beta
            assert e.classify(*image) == e.classify(*beta)

    # exponent square identity for a verified character on this system
    if name == "counterexample_nu6.json":
        with open(SPEC_DIR / "counterexample_nu6_char.json") as fh:
            char = character_from_json(e, json.load(fh))
    else:
        n = e.rank + e.nullity
        char = standard_hom_character(e, tuple((i % 3) + 1 for i in range(n)), 4)
    assert verify_character(char, w).ok
    square = enumeration_reference.square_shift_by_pairs(char, w)
    assert square["ok"]

    elapsed = time.monotonic() - start
    report_line(6, f"property suite on {name}", True, elapsed)


def test_criterion_6_negative_controls():
    """Corrupted inputs must fail with concrete witnesses."""
    start = time.monotonic()

    # corrupted table character: flip one exponent
    e = build_ears(EarsSpec.simply_laced(FiniteType("A", 2), 1))
    hom = standard_hom_character(e, (1, 0, 1), 2)
    entries = [(r, hom.eval(r).exponent) for r in enumerate_roots(e, Window(2))]
    flip_at = next(i for i, (r, _) in enumerate(entries) if r.finite is not None)
    entries[flip_at] = (entries[flip_at][0], entries[flip_at][1] ^ 1)
    corrupted = Character(e, 2, TableRule(2, tuple(entries)))
    report = verify_character(corrupted, Window(2))
    assert not report.ok
    assert report.additivity_failures or report.inverse_failures

    # dependent representatives: constructor refuses the coset rule
    with pytest.raises(ValueError):
        build_a1_counterexample(2, [(1, 0), (0, 1), (1, 1)])
    full = build_ears(EarsSpec.rank_one(2, Semilattice.standard(2)))
    with pytest.raises(ValueError):
        coset_rule(full)

    # corrupted diagonal map: incoherent scaling across one root space
    t = build_torus(2, 1, 2)

    class Corrupt(TorusAutomorphism):
        def apply(self, x):
            terms = []
            for key, lam, c in x.terms:
                if key == ("e", 0, 1) and not any(lam):
                    c = c * CycScalar(2, (0, 1))
                terms.append((key, lam, c))
            return TorusElement(x.ell, x.nu, x.modulus, tuple(terms))

    bad = Corrupt(t.ell, t.nu, t.modulus, False, (0, 0, 0))
    bad_report = verify_automorphism(t, bad, Window(1))
    assert not bad_report.ok
    assert bad_report.checks["bracket_compatibility"]["failures"]

    elapsed = time.monotonic() - start
    report_line(
        6,
        "negative controls (corrupted table, dependent representatives, corrupted "
        "diagonal) all fail with witnesses",
        True,
        elapsed,
    )


def _timed_cli(*argv):
    """Exit code, JSON report and in-process wall time of one `ears` command."""
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, json.loads(out.getvalue()), time.monotonic() - start


def test_criterion_7_counterexample_at_windows_2_and_3():
    """The counterexample verified exhaustively past window 1, inside the budgets."""
    start = time.monotonic()
    spec = SPEC_DIR / "counterexample_nu6.json"
    char = SPEC_DIR / "counterexample_nu6_char.json"
    pairs = {2: (121_000_039, 50_189_908), 3: (2_138_335_783, 564_457_540)}
    budgets = []
    for window, (full, core) in pairs.items():
        code, report, elapsed = _timed_cli("char-verify", spec, char, "--window", window)
        assert code == 0
        assert report["checks"]["character"]["pairs_checked"] == full
        assert report["checks"]["core_character"]["pairs_checked"] == core
        budgets.append(elapsed < 2)

    code, report, elapsed = _timed_cli("info", spec, "--window", 2)
    assert code == 0
    counts = report["root_counts"]
    strings = report["checks"]["root_strings"]
    assert strings["pairs"] == counts["window_nonisotropic"] * counts["window_total"]
    budgets.append(elapsed < 10)

    code, report, elapsed = _timed_cli("info", SPEC_DIR / "a3_nu2.json", "--window", 2)
    assert code == 0
    budgets.append(elapsed < 0.5)

    elapsed = time.monotonic() - start
    report_line(
        7,
        "counterexample char-verify at windows 2 and 3 (< 2 s each) and info at "
        "window 2 (< 10 s); info a3_nu2 at window 2 (< 0.5 s)",
        all(budgets),
        elapsed,
    )


def test_criterion_8_counterexample_char_extend_at_windows_2_and_3():
    """The counterexample's UNSAT witness past window 1, inside the budgets: the
    constraint systems have 16,563 and 69,843 rows of 7 columns."""
    start = time.monotonic()
    spec = SPEC_DIR / "counterexample_nu6.json"
    char = SPEC_DIR / "counterexample_nu6_char.json"
    budgets = []
    for window, budget in ((2, 2), (3, 6)):
        code, report, elapsed = _timed_cli("char-extend", spec, char, "--window", window)
        assert code == 1
        assert report["extendable"] is False
        assert report["witness"]
        recheck = report["witness_recheck"]
        assert recheck["passed"] is True
        assert recheck["coord_sum"] == [0] * 7
        assert recheck["exponent_sum"] % 2 == 1
        budgets.append(elapsed < budget)

    elapsed = time.monotonic() - start
    report_line(
        8,
        "counterexample char-extend at window 2 (< 2 s) and window 3 (< 6 s), "
        "each with a re-checked witness",
        all(budgets),
        elapsed,
    )
