import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ears.torus as torus_module
import torus_reference as ref
from ears.base import Root, Window, record
from ears.characters import (
    Character,
    TableRule,
    standard_hom_character,
    verify_character,
    verify_core_character,
)
from ears.system import enumerate_roots
from ears.torus import (
    CycScalar,
    LieTorus,
    TorusAutomorphism,
    TorusElement,
    _scalar_action_exponent,
    bracket,
    build_torus,
    chevalley,
    diagonal_from_hom,
    extract_core_character,
    trace_form,
    verify_automorphism,
)


@pytest.fixture(scope="module")
def torus():
    return build_torus(2, 1, 2)


class TestCycScalar:
    def test_zeta_power_wraps(self):
        z = ref.zeta(4)
        acc = ref.zeta(4, 0)
        for _ in range(4):
            acc = acc * z
        assert acc == ref.zeta(4, 0)

    def test_convolution(self):
        a = CycScalar(3, (1, 1, 0))
        b = CycScalar(3, (0, 1, 0))
        assert a * b == CycScalar(3, (0, 1, 1))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            ref.zeta(2, 0) * ref.zeta(3, 0)

    def test_coefficients_are_integers(self):
        with pytest.raises(ValueError):
            CycScalar(2, (0.5, 0))
        with pytest.raises(ValueError):
            CycScalar(2, (2.0, -1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                            st.integers(-10, 10))
    ))
    def test_rotation_is_product_with_zeta(self, case):
        m, coeffs, k = case
        c = CycScalar(m, tuple(coeffs))
        assert ref.rotated(c, k) == c * ref.zeta(m, k)

    def test_surface_is_fields_check_and_product(self):
        """The group-ring arithmetic runs on coefficient tuples inside
        `ears.torus`, so the value type has no arithmetic of its own but `*`,
        which stays because the traced benchmark counts `CycScalar.__mul__`."""

        @record
        class Bare:
            modulus: int
            coeffs: tuple[int, ...]

        assert [f.name for f in CycScalar.__record_fields__] == ["modulus", "coeffs"]
        assert set(vars(CycScalar)) - set(vars(Bare)) == {"__post_init__", "__mul__"}


def _action_exponent_by_products(x, y, m):
    """The exponent as first read: try every power of zeta in turn."""
    for k in range(m):
        if y == ref.scale(x, ref.zeta(m, k)):
            return k
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_scalar_action_exponent_matches_products(m, data):
    t = build_torus(2, 1, m)
    coeff = st.lists(st.integers(-2, 2), min_size=m, max_size=m).map(
        lambda c: CycScalar(m, tuple(c))
    )
    units = [t.e(0, 1), t.e(1, 2, (1,)), t.h(0, (-1,)), t.h(1)]
    x = TorusElement(t.ell, t.nu, t.modulus, ())
    for u in data.draw(st.lists(st.sampled_from(units), max_size=3)):
        x = x + ref.scale(u, data.draw(coeff))
    y = ref.scale(x, ref.zeta(m, data.draw(st.integers(0, m - 1))))
    if data.draw(st.booleans()):
        y = y + ref.scale(data.draw(st.sampled_from(units)), data.draw(coeff))
    assert _scalar_action_exponent(x, y, m) == _action_exponent_by_products(x, y, m)


class TestBracket:
    def test_opposite_units_give_cartan(self, torus):
        t = torus
        result = bracket(t.e(0, 1, (1,)), t.e(1, 0, (-1,)))
        assert result == t.h(0)

    def test_nested_units(self, torus):
        t = torus
        assert bracket(t.e(0, 1), t.e(1, 2)) == t.e(0, 2)

    def test_cartan_eigenvalue_two(self, torus):
        t = torus
        x = t.e(0, 1, (3,))
        assert bracket(t.h(0), x) == ref.scale(x, 2)

    def test_antisymmetry_and_bilinearity(self, torus):
        t = torus
        x = t.e(0, 1, (1,)) + ref.scale(t.h(1, (-1,)), 3)
        y = ref.sub(t.e(2, 0), t.e(1, 2, (2,)))
        assert bracket(x, y) == ref.neg(bracket(y, x))
        z = t.e(0, 2, (1,))
        lhs = bracket(x + z, y)
        assert lhs == bracket(x, y) + bracket(z, y)

    def test_vanishes_outside_roots(self, torus):
        t = torus
        # degrees add to twice a root, which is not a root
        assert ref.is_zero(bracket(t.e(0, 1), t.e(0, 1, (2,))))

    def test_distant_cartan_commutes(self, torus):
        assert ref.is_zero(bracket(torus.h(0), torus.h(1)))

    def test_parameter_mismatch(self, torus):
        other = build_torus(2, 2, 2)
        with pytest.raises(ValueError):
            bracket(torus.e(0, 1), other.e(0, 1))

    def test_jacobi_window_one(self, torus):
        report = ref.jacobi_identity_report(torus, Window(1))
        assert report["ok"]
        assert report["triples"] == 24 ** 3


class TestChevalley:
    def test_matrix_unit_image(self, torus):
        t = torus
        tau = chevalley(t)
        assert tau.apply(t.e(0, 1, (1,))) == ref.neg(t.e(1, 0, (-1,)))

    def test_cartan_negated(self, torus):
        t = torus
        tau = chevalley(t)
        assert tau.apply(t.h(0)) == ref.neg(t.h(0))

    def test_involution_on_window(self, torus):
        tau = chevalley(torus)
        for x in torus.graded_basis(Window(3)):
            assert tau.apply(tau.apply(x)) == x

    def test_verifies(self, torus):
        report = verify_automorphism(torus, chevalley(torus), Window(2))
        assert report.ok, report.checks


class TestDiagonal:
    def test_identity_from_zero_hom(self, torus):
        psi = diagonal_from_hom(torus, (0, 0, 0))
        for x in torus.graded_basis(Window(2)):
            assert psi.apply(x) == x

    def test_first_simple_flip(self, torus):
        # exponent 1 on the first simple root, order 2: e01 picks up the sign
        # (the order-2 group element, distinct from -1 in the group ring), e12 fixed
        t = torus
        psi = diagonal_from_hom(t, (1, 0, 0))
        sign = ref.zeta(2, 1)
        for lam in ((0,), (1,), (-2,)):
            assert psi.apply(t.e(0, 1, lam)) == ref.scale(t.e(0, 1, lam), sign)
            assert psi.apply(t.e(1, 2, lam)) == t.e(1, 2, lam)
            assert psi.apply(t.e(0, 2, lam)) == ref.scale(t.e(0, 2, lam), sign)

    def test_isotropic_scaling(self, torus):
        t = torus
        psi = diagonal_from_hom(t, (0, 0, 1))
        x = t.h(0, (1,))
        assert psi.apply(x) == ref.scale(x, ref.zeta(2, 1))
        assert psi.apply(t.h(0)) == t.h(0)

    def test_degree_exponent_matches_root_coords(self, torus):
        t = torus
        psi = diagonal_from_hom(t, (1, 0, 1))
        e_sys = t.ears
        hom = standard_hom_character(e_sys, (1, 0, 1), 2)
        for lam in ((0,), (1,), (-1,)):
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    root = Root(t.finite_root(i, j), lam)
                    want = hom.eval(root).exponent
                    assert psi._degree_exponent(("e", i, j), lam) == want

    def test_verifies(self, torus):
        psi = diagonal_from_hom(torus, (1, 1, 1))
        report = verify_automorphism(torus, psi, Window(2))
        assert report.ok, report.checks

    def test_wrong_length_rejected(self, torus):
        with pytest.raises(ValueError):
            diagonal_from_hom(torus, (1, 0))


class TestComposite:
    def test_chevalley_then_diagonal_negates_cartan(self, torus):
        t = torus
        comp = ref.compose(chevalley(t), diagonal_from_hom(t, (1, 0, 1)))
        for r in range(t.ell):
            assert comp.apply(t.h(r)) == ref.neg(t.h(r))

    def test_square_is_identity(self, torus):
        t = torus
        comp = ref.compose(chevalley(t), diagonal_from_hom(t, (1, 0, 1)))
        for x in t.graded_basis(Window(2)):
            assert comp.apply(comp.apply(x)) == x

    def test_maps_root_space_to_opposite(self, torus):
        t = torus
        comp = ref.compose(chevalley(t), diagonal_from_hom(t, (1, 1, 0)))
        for lam in ((0,), (1,), (-2,)):
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    image = comp.apply(t.e(i, j, lam))
                    assert len(image.terms) == 1
                    key, deg, _ = image.terms[0]
                    assert key == ("e", j, i)
                    assert deg == tuple(-x for x in lam)


def _random_map(t):
    return st.builds(
        TorusAutomorphism, st.just(t.ell), st.just(t.nu), st.just(t.modulus),
        st.booleans(), st.tuples(*[st.integers(0, t.modulus - 1)] * (t.ell + t.nu)),
    )


@pytest.mark.parametrize("shape", [(2, 1, 4), (2, 2, 2), (3, 1, 3)], ids=str)
def test_compose_matches_nested_application(shape):
    t = build_torus(*shape)
    basis = t.graded_basis(Window(1))

    @settings(max_examples=15, deadline=None)
    @given(_random_map(t), _random_map(t))
    def check(left, right):
        comp = ref.compose(left, right)
        for x in basis:
            assert comp.apply(x) == left.apply(right.apply(x))

    check()


class TestFormPreservation:
    def test_trace_form_values(self, torus):
        t = torus
        assert trace_form(t.e(0, 1, (1,)), t.e(1, 0, (-1,))) == CycScalar(2, (1, 0))
        assert trace_form(t.e(0, 1, (1,)), t.e(1, 0, (0,))) == CycScalar(2, (0, 0))
        assert trace_form(t.h(0), t.h(0)) == CycScalar(2, (2, 0))
        assert trace_form(t.h(0), t.h(1)) == CycScalar(2, (-1, 0))

    def test_invariance(self, torus):
        # (x, [y, z]) = ([x, y], z) on a sample
        t = torus
        x, y, z = t.e(0, 1, (1,)), t.e(1, 2, (-1,)), t.e(2, 0)
        assert trace_form(x, bracket(y, z)) == trace_form(bracket(x, y), z)


@record
class _CorruptedDiagonal(TorusAutomorphism):
    """Scales e01 only at Laurent degree zero: incoherent across the root space."""

    def apply(self, x: TorusElement) -> TorusElement:
        terms = []
        for key, lam, c in x.terms:
            if key == ("e", 0, 1) and not any(lam):
                c = c * ref.zeta(self.modulus)
            terms.append((key, lam, c))
        return TorusElement(x.ell, x.nu, x.modulus, tuple(terms))


@record
class _CorruptedComposite(TorusAutomorphism):
    """Claims the flip but applies only its diagonal part: keys and degrees stay put."""

    def apply(self, x: TorusElement) -> TorusElement:
        diagonal = TorusAutomorphism(self.ell, self.nu, self.modulus, False, self.hom)
        return diagonal.apply(x)


def _corrupted_diagonal(t):
    return _CorruptedDiagonal(t.ell, t.nu, t.modulus, False, (0,) * (t.ell + t.nu))


@record
class _CorruptedIsotropic(TorusAutomorphism):
    """Scales h_r tensor t^sigma by zeta at sigma != 0 and fixes everything else.

    Among the brackets of basis pairs, such a piece comes only out of
    [e_ij tensor t^lam, e_ji tensor t^mu] with lam + mu = sigma, which has one
    term per h_r between i and j.  The window check must still see every pair
    whose image goes wrong when `apply` runs once per distinct bracket."""

    def apply(self, x: TorusElement) -> TorusElement:
        zeta = ref.zeta(self.modulus)
        return TorusElement(x.ell, x.nu, x.modulus, tuple(
            (key, lam, c * zeta if key[0] == "h" and any(lam) else c)
            for key, lam, c in x.terms
        ))


@record
class _TwoTerms(TorusAutomorphism):
    """Sends e01 tensor t^lam to e01 tensor t^lam + e02 tensor t^lam: a two-term image."""

    def apply(self, x: TorusElement) -> TorusElement:
        terms = list(x.terms)
        terms += [(("e", 0, 2), lam, c) for key, lam, c in x.terms if key == ("e", 0, 1)]
        return ref.canonical(x.ell, x.nu, x.modulus, terms)


@record
class _KillsE01(TorusAutomorphism):
    """Sends every e01 tensor t^lam to 0 and fixes everything else."""

    def apply(self, x: TorusElement) -> TorusElement:
        return TorusElement(x.ell, x.nu, x.modulus, tuple(
            term for term in x.terms if term[0] != ("e", 0, 1)
        ))


@record
class _ZeroDivisor(TorusAutomorphism):
    """Scales e01 by the norm element 1 + zeta + ... + zeta**(m-1), e12 by
    1 - zeta and e02 by 0.  The first two multiply to 0, so the pairs of e01
    and e12 pass only if [a x, a y] drops its zero terms; pairs such as those
    of e01 and e10 fail."""

    def apply(self, x: TorusElement) -> TorusElement:
        m = self.modulus
        scale = {
            ("e", 0, 1): CycScalar(m, (1,) * m),
            ("e", 1, 2): CycScalar(m, (1, -1) + (0,) * (m - 2)),
            ("e", 0, 2): CycScalar(m, (0,) * m),
        }
        return ref.canonical(x.ell, x.nu, x.modulus, [
            (key, lam, ref.times(c, scale[key]) if key in scale else c)
            for key, lam, c in x.terms
        ])


def _fixing(cls):
    return lambda t: cls(t.ell, t.nu, t.modulus, False, (0,) * (t.ell + t.nu))


_CORRUPTIONS = {
    "diagonal": _corrupted_diagonal,
    "composite": lambda t: _CorruptedComposite(
        t.ell, t.nu, t.modulus, True, (1,) + (0,) * (t.ell + t.nu - 1)
    ),
    "isotropic": _fixing(_CorruptedIsotropic),
    "two_terms": _fixing(_TwoTerms),
    "to_zero": _fixing(_KillsE01),
    "zero_divisor": _fixing(_ZeroDivisor),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 4), (3, 1, 3), (2, 0, 2)], ids=str)
def test_negative_controls_match_the_unmemoised_loop(shape, name):
    """Every check, with the same first five witnesses in the same order, on
    single-term, multi-term, zero and zero-divisor images."""
    t = build_torus(*shape)
    a = _CORRUPTIONS[name](t)
    for w in (Window(1), Window(2)):
        checks = verify_automorphism(t, a, w).checks
        assert checks == ref.verify_automorphism(t, a, w).checks
        if w.bound == 1:  # every failing pair, not only the first five
            basis = t.graded_basis(w)
            images = [a.apply(x) for x in basis]
            pairs = list(torus_module._incompatible_pairs(t, basis, images, a.apply))
            assert pairs == ref.incompatible_pairs(t, a, w)
        # without isotropic degrees the isotropic corruption is the identity
        assert all(c["passed"] for c in checks.values()) == (name == "isotropic" and not t.nu)
    if name == "isotropic" and t.nu:
        assert len(checks["bracket_compatibility"]["failures"]) == 5


@pytest.mark.parametrize("shape", [(2, 1, 4), (2, 2, 2), (3, 1, 3)], ids=str)
def test_window_checks_match_the_first_version(shape):
    t = build_torus(*shape)
    windows = [Window(1), Window(2)] if shape == (2, 1, 4) else [Window(1)]

    @settings(max_examples=6, deadline=None)
    @given(_random_map(t))
    def check(a):
        first = ref.ReferenceMap(a.ell, a.nu, a.modulus, a.flip, a.hom)
        for w in windows:
            assert verify_automorphism(t, a, w).checks == ref.verify_automorphism(t, first, w).checks

    check()


@st.composite
def _scalars(draw, m):
    """Group-ring scalars: mostly not monomials, so products convolve."""
    if draw(st.booleans()):
        return CycScalar(m, tuple(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))))
    return ref.scaled(ref.zeta(m, draw(st.integers(0, m - 1))), draw(st.sampled_from((1, -1))))


@st.composite
def _elements(draw, t):
    """Multi-term elements; some sums cancel in part or to zero."""
    keys = [x.terms[0][0] for x in t.graded_basis(Window(0))]
    lam = st.tuples(*[st.integers(-2, 2)] * t.nu)
    terms = draw(st.lists(st.tuples(st.sampled_from(keys), lam, _scalars(t.modulus)), max_size=4))
    if terms:
        cancel = draw(st.lists(st.sampled_from(terms), max_size=len(terms)))
        terms += [(key, deg, ref.scaled(c, -1)) for key, deg, c in cancel]
    return TorusElement(t.ell, t.nu, t.modulus, terms)


def _assert_canonical(x):
    labels = [term[:2] for term in x.terms]
    assert labels == sorted(set(labels))
    assert all(any(c.coeffs) for _, _, c in x.terms)


@pytest.mark.parametrize("ell,nu", [(2, 0), (2, 1), (3, 1), (2, 2)])
def test_kernel_matches_the_first_version(ell, nu):
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def check(m, data):
        t = build_torus(ell, nu, m)
        x, y = data.draw(_elements(t)), data.draw(_elements(t))
        c, d = data.draw(_scalars(m)), data.draw(_scalars(m))
        a = data.draw(_random_map(t))
        xy = bracket(x, y)
        _assert_canonical(xy)
        assert xy == ref.bracket(x, y)
        assert trace_form(x, y) == ref.trace_form(x, y)
        assert a.apply(x) == ref.apply(a, x)
        _assert_canonical(a.apply(x))
        assert x + y == ref.canonical(ell, nu, m, x.terms + y.terms)
        assert ref.scale(x, c) == ref.canonical(
            ell, nu, m, [(key, lam, ref.times(v, c)) for key, lam, v in x.terms]
        )
        assert c * d == ref.times(c, d)

    check()


def test_zero_divisors_cancel():
    t = build_torus(2, 1, 2)
    plus, minus = CycScalar(2, (1, 1)), CycScalar(2, (1, -1))
    assert plus * minus == CycScalar(2, (0, 0))
    assert ref.is_zero(bracket(ref.scale(t.e(0, 1), plus), ref.scale(t.e(1, 2), minus)))
    assert bracket(ref.scale(t.e(0, 1), plus), ref.scale(t.e(1, 2), plus)) == ref.scale(
        t.e(0, 2), CycScalar(2, (2, 2))
    )


def test_checks_call_the_module_bracket(monkeypatch):
    """The traced benchmark counts brackets by replacing `ears.torus.bracket`.

    The window checks compare memoized flats and make no call; `apply` runs
    once per distinct element, whatever the map.  The Jacobi check of
    `torus_reference` makes one call per basis pair, for its table of pair
    brackets."""
    t, w = build_torus(2, 1, 2), Window(1)
    basis = t.graded_basis(w)
    n = len(basis)
    brackets = {bracket(x, y) for x in basis for y in basis}
    calls = []
    inner = torus_module.bracket

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    applied = []

    @record
    class Counted(TorusAutomorphism):
        def apply(self, x):
            applied.append(x)
            return super().apply(x)

    monkeypatch.setattr(torus_module, "bracket", counted)
    for flip, hom in ((False, (0, 0, 0)), (False, (1, 1, 1)), (True, (0, 0, 0))):
        a = Counted(t.ell, t.nu, t.modulus, flip, hom)
        calls.clear()
        applied.clear()
        verify_automorphism(t, a, w)
        assert not calls
        power = 2 if flip else t.modulus
        orbits = set()
        for x in basis:
            for _ in range(power):
                orbits.add(x)
                x = TorusAutomorphism.apply(a, x)
        assert len(applied) == len(set(applied))
        assert set(applied) == orbits | brackets
    calls.clear()
    ref.jacobi_identity_report(t, w)
    assert len(calls) == n * n


@record
class _Elsewhere(TorusAutomorphism):
    """Maps into the torus of modulus 3: the same keys and degrees, other scalars."""

    def apply(self, x: TorusElement) -> TorusElement:
        return TorusElement(
            x.ell, x.nu, 3, tuple((key, lam, ref.zeta(3, 0)) for key, lam, _ in x.terms)
        )


class TestShapeChecks:
    def test_coefficient_of_another_modulus_rejected(self):
        with pytest.raises(ValueError):
            TorusElement(2, 1, 2, ((("e", 0, 1), (0,), CycScalar(3, (0, 1, 0))),))

    def test_scale_by_another_modulus_rejected(self, torus):
        with pytest.raises(ValueError):
            ref.scale(torus.e(0, 1), ref.zeta(3))

    def test_unknown_key_and_bad_degree_rejected(self):
        one = ref.zeta(2, 0)
        for terms in (
            ((("e", 0, 0), (0,), one),),
            ((("h", 2), (0,), one),),
            ((("e", 0, 1), (0, 0), one),),
            ((("e", 0, 1), (0.5,), one),),
            ((("e", 0, 1), (0,), 1),),
        ):
            with pytest.raises(ValueError):
                TorusElement(2, 1, 2, terms)

    def test_image_in_another_torus_rejected(self, torus):
        bad = _Elsewhere(torus.ell, torus.nu, torus.modulus, False, (0, 0, 0))
        with pytest.raises(ValueError):
            verify_automorphism(torus, bad, Window(1))
        with pytest.raises(ValueError):
            extract_core_character(torus, bad, Window(1))

    def test_equal_tori_mix(self, torus):
        """`build_torus` gives one torus per shape, and its tables are built
        once; a `LieTorus` built directly is another, equal object, whose
        elements mix with those of the first."""
        other = LieTorus(2, 1, 2)
        assert build_torus(2, 1, 2) is torus and other == torus and other is not torus
        assert bracket(other.e(0, 1), torus.e(1, 0)) == torus.h(0)
        assert _scalar_action_exponent(other.e(0, 1), ref.scale(torus.e(0, 1), ref.zeta(2)), 2) == 1
        bad = _corrupted_diagonal(torus)  # its images are elements of `torus`
        checks = verify_automorphism(other, bad, Window(1)).checks
        assert checks == verify_automorphism(torus, bad, Window(1)).checks

    def test_map_of_another_torus_rejected(self, torus):
        with pytest.raises(ValueError):
            diagonal_from_hom(build_torus(2, 1, 3), (1, 0, 0)).apply(torus.e(0, 1))


class TestNegativeControls:
    def test_corrupted_diagonal_fails_with_witness(self, torus):
        bad = _corrupted_diagonal(torus)
        report = verify_automorphism(torus, bad, Window(1))
        assert not report.ok
        assert report.checks["bracket_compatibility"]["failures"]

    def test_corrupted_diagonal_fails_extraction(self, torus):
        bad = _corrupted_diagonal(torus)
        with pytest.raises(ValueError):
            extract_core_character(torus, bad, Window(1))

    def test_chevalley_composite_not_cartan(self, torus):
        with pytest.raises(ValueError):
            extract_core_character(torus, chevalley(torus), Window(1))

    def test_composite_keeping_key_and_degree_fails_mapping(self, torus):
        bad = _CorruptedComposite(torus.ell, torus.nu, torus.modulus, True, (1, 0, 1))
        report = verify_automorphism(torus, bad, Window(1))
        assert not report.ok
        mapping = report.checks["root_space_mapping"]
        assert not mapping["passed"]
        assert mapping["failures"]
        # the map is a diagonal automorphism, so only the mapping check sees the lie
        assert all(c["passed"] for name, c in report.checks.items()
                   if name != "root_space_mapping")


@record
class _ShiftedRootSpace(TorusAutomorphism):
    """Scales e01 by zeta away from degree zero: every piece is a scalar, but
    the isotropic values break the shift rule at the root of e01."""

    def _degree_exponent(self, key, lam):
        return int(key == ("e", 0, 1) and any(lam))


@record
class _SplitCartan(TorusAutomorphism):
    """Scales h_0 by zeta away from degree zero and fixes h_1 there."""

    def _degree_exponent(self, key, lam):
        return int(key == ("h", 0) and any(lam))


class TestExtractionRaises:
    """Maps that scale every piece by a root of unity, but not by a character;
    the full messages pin the degrees and roots they name."""

    def test_shift_rule(self, torus):
        bad = _ShiftedRootSpace(torus.ell, torus.nu, torus.modulus, False, (0, 0, 0))
        with pytest.raises(ValueError, match=re.escape(
            "isotropic value at (0,) breaks the shift rule at root "
            "Root(finite=(1, 0), iso=(-1,))"
        )):
            extract_core_character(torus, bad, Window(1))

    def test_cartan_pieces_disagree(self, torus):
        bad = _SplitCartan(torus.ell, torus.nu, torus.modulus, False, (0, 0, 0))
        with pytest.raises(ValueError, match=re.escape(
            "Cartan pieces at degree (-1,) are scaled differently"
        )):
            extract_core_character(torus, bad, Window(1))


class TestExtraction:
    def test_roundtrip(self, torus):
        t = torus
        hom = (1, 0, 1)
        char, report = extract_core_character(t, diagonal_from_hom(t, hom), Window(2))
        assert all(v is True for k, v in report.items() if isinstance(v, bool))
        reference = standard_hom_character(t.ears, hom, t.modulus)
        for r in enumerate_roots(t.ears, Window(2)):
            assert char.eval(r).exponent == reference.eval(r).exponent

    def test_identity_gives_trivial_character(self, torus):
        char, _ = extract_core_character(
            torus, diagonal_from_hom(torus, (0, 0, 0)), Window(1)
        )
        assert all(exp == 0 for _, exp in char.rule.entries)

    def test_extracted_character_verifies(self, torus):
        char, _ = extract_core_character(
            torus, diagonal_from_hom(torus, (1, 1, 0)), Window(2)
        )
        assert verify_character(char, Window(2)).ok

    def test_composite_of_diagonals(self, torus):
        t = torus
        comp = ref.compose(diagonal_from_hom(t, (1, 0, 1)), diagonal_from_hom(t, (0, 1, 1)))
        char, _ = extract_core_character(t, comp, Window(1))
        reference = standard_hom_character(t.ears, (1, 1, 0), t.modulus)
        for r in enumerate_roots(t.ears, Window(1)):
            assert char.eval(r).exponent == reference.eval(r).exponent


class TestValidation:
    def test_rank_floor(self):
        with pytest.raises(ValueError):
            build_torus(1, 1, 2)

    def test_bad_indices(self, torus):
        with pytest.raises(ValueError):
            torus.e(0, 0)
        with pytest.raises(ValueError):
            torus.h(5)

    def test_wrong_degree_length(self, torus):
        with pytest.raises(ValueError):
            torus.e(0, 1, (1, 2))

    def test_automorphism_fields_checked(self, torus):
        for flip, hom in (
            (False, (1, 0)), (False, (1, 0, 0, 0)), (False, (True, 0, 0)), (1, (0, 0, 0)),
        ):
            with pytest.raises(ValueError):
                TorusAutomorphism(2, 1, 2, flip, hom)
        a = TorusAutomorphism(2, 1, 2, False, [3, -1, 4])
        assert a.hom == (1, 1, 0)
        assert a == diagonal_from_hom(torus, (1, 1, 0))


def extract_by_separate_loops(t, a, w):
    """The extraction as first written, kept as the oracle for the one-pass version.

    It checks the Cartan part, reads the root spaces, builds each isotropic
    value from the set of its shift-rule candidates and compares it with the
    action on the isotropic spaces, in separate loops.
    """
    m = t.modulus
    e_sys = t.ears
    for r in range(t.ell):
        x = t.h(r)
        if a.apply(x) != x:
            raise ValueError("automorphism does not fix the Cartan part pointwise")

    box = list(w.points(t.nu))
    eta = {}
    for lam in box:
        for i in range(t.size):
            for j in range(t.size):
                if i == j:
                    continue
                x = t.e(i, j, lam)
                exp = _scalar_action_exponent(x, a.apply(x), m)
                if exp is None:
                    raise ValueError(f"not a unity scalar on e[{i},{j}] at degree {lam}")
                eta[Root(t.finite_root(i, j), lam)] = exp

    eta_iso = {}
    for sigma in box:
        candidates = set()
        for alpha, exp in eta.items():
            partner = Root(alpha.finite, tuple(x + s for x, s in zip(alpha.iso, sigma)))
            if partner in eta:
                candidates.add((eta[partner] + eta[e_sys.neg(alpha)]) % m)
        if len(candidates) != 1:
            raise ValueError(f"isotropic value at {sigma} depends on the reference root")
        value = candidates.pop()
        for r in range(t.ell):
            x = t.h(r, sigma)
            if _scalar_action_exponent(x, a.apply(x), m) != value:
                raise ValueError(f"isotropic space at {sigma} disagrees with {value}")
        eta_iso[sigma] = value

    entries = list(eta.items())
    for sigma in box:
        entries.append((Root(None, sigma), eta_iso[sigma]))
    entries.sort(key=lambda pair: e_sys.sort_key(pair[0]))
    char = Character(e_sys, m, TableRule(w.bound, tuple(entries)))

    core_report = verify_core_character(char, w)
    report = {
        "fixes_cartan": True,
        "diagonal_on_root_spaces": True,
        "inverse_rule": not any(
            f["root"]["finite"] is not None for f in core_report.inverse_failures
        ),
        "core_multiplicativity": core_report.ok,
        "pairs_checked": core_report.pairs_checked,
    }
    return char, report


@record
class _PieceScaling(TorusAutomorphism):
    """Scales each graded piece by zeta**f(key, lam): the hom's exponent, except
    that `shifted` adds `delta` at one piece and `garbled` adds a second term
    to one piece's image, so that image is not a scalar multiple."""

    shifted: tuple | None = None
    delta: int = 0
    garbled: tuple | None = None

    def apply(self, x: TorusElement) -> TorusElement:
        terms = []
        for key, lam, c in x.terms:
            k = self._degree_exponent(key, lam)
            if (key, lam) == self.shifted:
                k += self.delta
            terms.append((key, lam, ref.rotated(c, k)))
            if (key, lam) == self.garbled:
                terms.append((("h", 0) if key[0] == "e" else ("e", 0, 1), lam, c))
        return TorusElement(x.ell, x.nu, x.modulus, terms)


@st.composite
def _piece_scalings(draw, t, w):
    m = t.modulus
    hom = tuple(draw(st.integers(0, m - 1)) for _ in range(t.ell + t.nu))
    labels = [x.terms[0][:2] for x in t.graded_basis(w)]
    change = draw(st.sampled_from(("hom", "root", "isotropic", "garble")))
    kwargs = {}
    if change == "garble":
        kwargs["garbled"] = draw(st.sampled_from(labels))
    elif change != "hom" and m > 1:
        kind = "e" if change == "root" else "h"
        kwargs["shifted"] = draw(st.sampled_from([p for p in labels if p[0][0] == kind]))
        kwargs["delta"] = draw(st.integers(1, m - 1))
    return _PieceScaling(t.ell, t.nu, m, False, hom, **kwargs)


def _outcome(extract, t, a, w):
    try:
        char, report = extract(t, a, w)
    except ValueError:
        return "ValueError"
    return char.to_json(), report


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("shape", [(2, 1, 2), (2, 1, 4), (2, 2, 2), (3, 1, 3)], ids=str)
def test_extraction_matches_separate_loops(shape, window):
    t, w = build_torus(*shape), Window(window)

    @settings(max_examples=12, deadline=None)
    @given(_piece_scalings(t, w))
    def check(a):
        assert _outcome(extract_core_character, t, a, w) == _outcome(
            extract_by_separate_loops, t, a, w
        )

    check()
