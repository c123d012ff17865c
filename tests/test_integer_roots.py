"""Integer roots against the realization-coordinate oracle.

The package represents a root by integer simple-root coordinates and
ambient-lattice coordinates.  `fraction_reference.FractionRoots` keeps the
arithmetic it replaced: realization coordinates in `Fraction`s and ambient
vectors.  On random specs (rank one, simply laced over non-standard unimodular
lattices, B2, C3 and G2 with or without twist) both must enumerate the same window roots, find
the same root-string members for every pair, and give the same character
verification reports.  On random twisted specs the twist order, a ratio of
covolumes, must equal the sublattice index it replaced.  Roots and reports
use coordinates only, so moving a spec's bases and representatives by one
invertible matrix per ambient space changes no report.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumeration_reference import index_of_sublattice
from fraction_reference import FractionFinite, FractionRoots, ambient_model, simple_coords
from lattice_reference import matmul
from ears.characters import (
    A1CosetRule,
    Character,
    LatticeHomRule,
    TableRule,
    sum_free_violation,
    verify_character,
    verify_core_character,
)
from ears.finite import FiniteType
from ears.cli import main
from ears.lattice import IntLattice, Semilattice, matvec
from ears.system import EarsSpec, Window, build_ears, enumerate_roots, invariants, twist_order
from ears.torus import build_torus

WINDOW = 1


@st.composite
def unimodular(draw, n):
    """Identity scrambled by integer row operations and a row permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = draw(st.integers(-2, 2))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(m[i]) for i in draw(st.permutations(range(n))))


@st.composite
def lattices(draw, n):
    """A unimodular basis, with one basis vector doubled half of the time."""
    basis = [list(row) for row in draw(unimodular(n))]
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in basis:
            row[j] *= 2
    return IntLattice(tuple(map(tuple, basis)))


@st.composite
def semilattices(draw, n, full=False):
    """Random coset representatives over a random lattice of rank n.

    The unit classes are always present, so the representatives span the
    lattice modulo its double; each representative is shifted by a random
    element of the doubled lattice.
    """
    lat = draw(lattices(n))
    keys = list(itertools.product((0, 1), repeat=n))[1:]
    units = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    chosen = [k for k in keys if full or k in units or draw(st.booleans())]
    reps = [(0,) * n]
    for key in chosen:
        shift = [2 * draw(st.integers(-1, 1)) for _ in range(n)]
        reps.append(lat.from_coords([k + s for k, s in zip(key, shift)]))
    return Semilattice(lat, tuple(reps))


@st.composite
def rank_one_specs(draw):
    n = draw(st.integers(1, 3))
    return EarsSpec.rank_one(n, draw(semilattices(n)))


@st.composite
def simply_laced_specs(draw):
    t, n = draw(st.sampled_from([(FiniteType("A", 2), 1), (FiniteType("A", 2), 2),
                                 (FiniteType("A", 3), 1)]))
    return EarsSpec.simply_laced(t, n, IntLattice(draw(unimodular(n))))


@st.composite
def twisted_specs(draw):
    t, n = draw(st.sampled_from([(FiniteType("B", 2), 1), (FiniteType("B", 2), 2),
                                 (FiniteType("C", 3), 1), (FiniteType("G", 2), 1)]))
    twist = draw(st.integers(0, n))
    s1 = draw(semilattices(twist, full=t.family in "CG"))
    s2 = draw(semilattices(n - twist, full=t.family == "G"))
    return EarsSpec(t, n, twist, s1=s1, s2=s2)


SPECS = st.one_of(rank_one_specs(), simply_laced_specs(), twisted_specs())


@st.composite
def characters(draw, e):
    """A homomorphism on a random unimodular basis, a table restricted from one
    with one exponent possibly changed, or the coset rule when it applies."""
    n = e.rank + e.nullity
    m = draw(st.integers(2, 4))
    basis = draw(unimodular(n))
    values = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    hom = Character(e, m, LatticeHomRule(basis, values))
    kind = draw(st.sampled_from(["hom", "table", "a1coset"]))
    if kind == "a1coset" and e.spec.kind == "rank_one" and sum_free_violation(e.S) is None:
        return Character(e, 2, A1CosetRule())
    if kind == "table":
        entries = [(r, hom.eval(r).exponent) for r in enumerate_roots(e, Window(WINDOW))]
        i = draw(st.integers(0, len(entries) - 1))
        bump = draw(st.integers(0, m - 1))
        entries[i] = (entries[i][0], (entries[i][1] + bump) % m)
        return Character(e, m, TableRule(WINDOW, tuple(entries)))
    return hom


G2_TWISTED = EarsSpec(
    FiniteType("G", 2), 1, 1, s1=Semilattice.standard(1), s2=Semilattice.standard(0)
)
B2_SKEWED = EarsSpec(
    FiniteType("B", 2), 2, 1,
    s1=Semilattice(IntLattice(((2,),)), ((0,), (-2,))),
    s2=Semilattice(IntLattice(((1,),)), ((0,), (3,))),
)


@settings(max_examples=20, deadline=None)
@given(SPECS)
@example(G2_TWISTED)
@example(B2_SKEWED)
def test_enumeration_and_root_strings_match_oracle(spec):
    e = build_ears(spec)
    ref = FractionRoots(e)
    ref_roots = ref.enumerate_roots(WINDOW)
    roots = enumerate_roots(e, Window(WINDOW))
    assert [ref.to_int(r) for r in ref_roots] == roots
    assert [ref.from_int(r) for r in roots] == ref_roots
    for r in ref_roots:
        assert e.classify(*ref.to_int(r)) is ref.classify(*r)
    for alpha, ref_alpha in zip(roots, ref_roots):
        if alpha.finite is None:
            continue
        steps = [(n, e.scale_root(n, alpha)) for n in range(-8, 9)]
        for beta, ref_beta in zip(roots, ref_roots):
            members = {n for n, step in steps if e.is_root(e.add(beta, step))}
            assert members == ref.string_members(ref_alpha, ref_beta)


@settings(max_examples=25, deadline=None)
@given(SPECS.flatmap(lambda spec: characters(build_ears(spec))))
def test_character_reports_match_oracle(c):
    ref = FractionRoots(c.ears)
    w = Window(WINDOW)
    assert verify_character(c, w).to_json() == ref.verify_character(c, WINDOW)
    assert verify_core_character(c, w).to_json() == ref.verify_character(
        c, WINDOW, core_only=True
    )


@settings(max_examples=30, deadline=None)
@given(twisted_specs())
@example(G2_TWISTED)
@example(B2_SKEWED)
def test_twist_order_matches_sublattice_index(spec):
    e = build_ears(spec)
    ambient, _, l = ambient_model(spec)
    assert twist_order(e) == index_of_sublattice(ambient, l.lattice)
    assert invariants(e)["twist_order"] == e.lacing ** spec.twist


@st.composite
def moved(draw, form):
    """A form object with its basis B and representatives r replaced by A B
    and A r, for a drawn A that is unimodular or of determinant +-2."""
    a = draw(lattices(form.dim)).basis
    if isinstance(form, IntLattice):
        return IntLattice(matmul(a, form.basis))
    return Semilattice(IntLattice(matmul(a, form.lattice.basis)),
                       tuple(matvec(a, r) for r in form.reps))


@st.composite
def moved_specs(draw):
    """(spec, the same spec over moved ambient spaces)."""
    spec = draw(SPECS)
    forms = {f: getattr(spec, f) for f in ("s", "lattice", "s1", "s2")}
    return spec, EarsSpec(spec.type, spec.nullity, spec.twist, **{
        f: None if form is None else draw(moved(form)) for f, form in forms.items()
    })


def report(spec, argv):
    """Exit code and JSON report of in-process `main` on the spec, without its digest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
    obj = json.loads(out.getvalue())
    del obj["inputs"]["spec_sha256"]
    return code, obj


@settings(max_examples=15, deadline=None)
@given(moved_specs())
def test_reports_do_not_depend_on_the_ambient_basis(specs):
    """`--refl-oracle` and `minsize` search bases of up to refl_R elements, and
    a search that finds none tries every subset of its pool: for B2 over Z^2
    with four cosets in S2 that is C(232, 4) subsets.  So both run only where
    refl_R <= 4, the size `minsize` gets here."""
    spec, moved_spec = specs
    commands = [["info", "--window", "1"]]
    if invariants(build_ears(spec))["refl_R"] <= 4:
        commands = [["info", "--window", "1", "--refl-oracle"],
                    ["weyl", "minsize", "--window", "1", "--max-size", "4"]]
    for argv in commands:
        assert report(moved_spec, argv) == report(spec, argv)


def test_torus_root_coordinates_match_realization():
    t = build_torus(3, 1, 2)
    f = FractionFinite(t.ears.spec.type)
    for i in range(t.size):
        for j in range(t.size):
            if i != j:
                realization = tuple(int(k == i) - int(k == j) for k in range(t.size))
                assert t.finite_root(i, j) == simple_coords(f, realization)
