"""Desk-scale multiloop realization: traceless matrices over Laurent polynomials.

Elements are finite sums of (matrix unit or Cartan difference) tensor a
Laurent monomial in nu variables, with coefficients in the integer group
ring of Z/m (cyclic convolution, so zeta ** m = 1 holds by construction and
all equality checks are exact).  This realizes the simply-laced type A
system over the full lattice: root spaces are matrix positions graded by
Laurent degree, the degree-zero Cartan part plays the role of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .characters import Character, TableRule, verify_core_character
from .finite import FiniteType
from .lattice import IntVector, json_int
from .system import AxiomReport, Ears, EarsSpec, Root, Window, build_ears

TermKey = tuple  # ("e", i, j) or ("h", r)


@dataclass(frozen=True)
class CycScalar:
    """Element of Z[Z/m]: integer coefficient vector for (1, zeta, ..., zeta**(m-1))."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if json_int(self.modulus, "modulus") < 1:
            raise ValueError("modulus must be >= 1")
        if len(self.coeffs) != self.modulus:
            raise ValueError("need exactly one coefficient per group element")
        if not all(type(c) is int for c in self.coeffs):
            raise ValueError(f"group-ring coefficients {self.coeffs} are not integers")

    @classmethod
    def zero(cls, m: int) -> "CycScalar":
        return cls(m, (0,) * m)

    @classmethod
    def one(cls, m: int) -> "CycScalar":
        return cls.zeta(m, 0)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CycScalar":
        coeffs = [0] * m
        coeffs[power % m] = 1
        return cls(m, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        return CycScalar(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        m = self.modulus
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % m] += a * b
        return CycScalar(m, tuple(out))

    def rotate(self, k: int) -> "CycScalar":
        """Product with zeta**k: the coefficients move k places cyclically."""
        k %= self.modulus
        if not k:
            return self
        return CycScalar(self.modulus, self.coeffs[-k:] + self.coeffs[:-k])

    def scale(self, q: int) -> "CycScalar":
        return CycScalar(self.modulus, tuple(q * a for a in self.coeffs))

    def _check(self, other: "CycScalar") -> None:
        if self.modulus != other.modulus:
            raise ValueError("scalar modulus mismatch")


@cache
def _unit_root(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Nonzero simple-root coordinates (r, +-1) of e_i - e_j, the root of e_ij.

    The simple roots are the adjacent differences e_r - e_(r+1), so the same
    pairs expand e_ii - e_jj over the Cartan differences h_r = e_rr - e_(r+1)(r+1).
    """
    if i < j:
        return tuple((r, 1) for r in range(i, j))
    return tuple((r, -1) for r in range(j, i))


@dataclass(frozen=True)
class TorusElement:
    """Canonical finite sum of graded basis terms with group-ring coefficients."""

    ell: int
    nu: int
    modulus: int
    terms: tuple[tuple[TermKey, IntVector, CycScalar], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TorusElement") -> None:
        if (self.ell, self.nu, self.modulus) != (other.ell, other.nu, other.modulus):
            raise ValueError("torus parameter mismatch")

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        return _canonical(self.ell, self.nu, self.modulus, self.terms + other.terms)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def __neg__(self) -> "TorusElement":
        return TorusElement(
            self.ell, self.nu, self.modulus,
            tuple((key, lam, -c) for key, lam, c in self.terms),
        )

    def scale(self, c: CycScalar | int) -> "TorusElement":
        if isinstance(c, int):
            c = CycScalar.one(self.modulus).scale(c)
        return _canonical(
            self.ell, self.nu, self.modulus,
            ((key, lam, coeff * c) for key, lam, coeff in self.terms),
        )


def _canonical(
    ell: int, nu: int, modulus: int, terms: Iterable[tuple[TermKey, IntVector, CycScalar]]
) -> TorusElement:
    """The sum of the given terms: equal (key, degree) merged, zeros dropped, sorted."""
    acc: dict[tuple[TermKey, IntVector], CycScalar] = {}
    for key, lam, c in terms:
        prev = acc.get((key, lam))
        acc[(key, lam)] = c if prev is None else prev + c
    return TorusElement(
        ell, nu, modulus,
        tuple((key, lam, c) for (key, lam), c in sorted(acc.items()) if not c.is_zero),
    )


@dataclass(frozen=True)
class LieTorus:
    """Traceless (ell+1) x (ell+1) matrices over nu-variable Laurent polynomials."""

    ell: int
    nu: int
    modulus: int

    def __post_init__(self) -> None:
        if json_int(self.ell, "ell") < 2:
            raise ValueError("matrix realization needs rank >= 2")
        if json_int(self.nu, "nu") < 0:
            raise ValueError("nullity must be >= 0")
        if json_int(self.modulus, "modulus") < 1:
            raise ValueError("scalar modulus must be >= 1")

    @property
    def size(self) -> int:
        return self.ell + 1

    def zero(self) -> TorusElement:
        return TorusElement(self.ell, self.nu, self.modulus, ())

    def _lam(self, lam: Sequence[int] | None) -> IntVector:
        if lam is None:
            return (0,) * self.nu
        lam = tuple(json_int(x, "Laurent degree") for x in lam)
        if len(lam) != self.nu:
            raise ValueError("Laurent degree has wrong length")
        return lam

    def e(self, i: int, j: int, lam: Sequence[int] | None = None) -> TorusElement:
        """Matrix unit e_ij tensor a Laurent monomial."""
        if not (0 <= i <= self.ell and 0 <= j <= self.ell) or i == j:
            raise ValueError("matrix unit indices must be distinct and in range")
        return TorusElement(
            self.ell, self.nu, self.modulus,
            ((("e", i, j), self._lam(lam), CycScalar.one(self.modulus)),),
        )

    def h(self, r: int, lam: Sequence[int] | None = None) -> TorusElement:
        """Cartan difference e_rr - e_(r+1)(r+1) tensor a Laurent monomial."""
        if not 0 <= r < self.ell:
            raise ValueError("Cartan index out of range")
        return TorusElement(
            self.ell, self.nu, self.modulus,
            ((("h", r), self._lam(lam), CycScalar.one(self.modulus)),),
        )

    def graded_basis(self, w: Window) -> list[TorusElement]:
        """All graded basis elements with Laurent degree sup-norm <= bound."""
        out = []
        for lam in w.points(self.nu):
            for r in range(self.ell):
                out.append(self.h(r, lam))
            for i in range(self.size):
                for j in range(self.size):
                    if i != j:
                        out.append(self.e(i, j, lam))
        return out

    @cached_property
    def ears(self) -> Ears:
        """The simply-laced system realized by this torus (full isotropic lattice)."""
        return build_ears(EarsSpec.simply_laced(FiniteType("A", self.ell), self.nu))

    def finite_root(self, i: int, j: int) -> IntVector:
        """Simple-root coordinates of e_i - e_j, the root of the matrix unit e_ij.

        The simple roots are the adjacent differences e_r - e_(r+1).
        """
        if not (0 <= i <= self.ell and 0 <= j <= self.ell) or i == j:
            raise ValueError("matrix unit indices must be distinct and in range")
        coords = dict(_unit_root(i, j))
        return tuple(coords.get(r, 0) for r in range(self.ell))


def build_torus(ell: int, nu: int, modulus: int) -> LieTorus:
    return LieTorus(ell, nu, modulus)


def bracket(x: TorusElement, y: TorusElement) -> TorusElement:
    """Lie bracket: matrix commutator with Laurent degrees adding."""
    x._check(y)
    terms = []
    for key1, lam1, c1 in x.terms:
        for key2, lam2, c2 in y.terms:
            lam = tuple(a + b for a, b in zip(lam1, lam2))
            c = c1 * c2
            for key, sign in _basis_bracket(key1, key2):
                terms.append((key, lam, c if sign == 1 else c.scale(sign)))
    return _canonical(x.ell, x.nu, x.modulus, terms)


@cache
def _basis_bracket(k1: TermKey, k2: TermKey) -> tuple[tuple[TermKey, int], ...]:
    if k1[0] == "h" and k2[0] == "h":
        return ()
    if k1[0] == "h":
        _, i, j = k2
        r = k1[1]
        c = (r == i) - (r == j) - (r + 1 == i) + (r + 1 == j)
        return ((k2, c),) if c else ()
    if k2[0] == "h":
        return tuple((key, -sign) for key, sign in _basis_bracket(k2, k1))
    _, i, j = k1
    _, k, l = k2
    if j == k and i == l:
        return tuple((("h", r), sign) for r, sign in _unit_root(i, j))
    if j == k:
        return ((("e", i, l), 1),)
    if l == i:
        return ((("e", k, j), -1),)
    return ()


def trace_form(x: TorusElement, y: TorusElement) -> CycScalar:
    """Invariant form: trace of the matrix product, kept at Laurent degree zero."""
    x._check(y)
    total = CycScalar.zero(x.modulus)
    for key1, lam1, c1 in x.terms:
        for key2, lam2, c2 in y.terms:
            if any(a + b for a, b in zip(lam1, lam2)):
                continue
            t = _basis_trace(key1, key2)
            if t:
                total = total + (c1 * c2).scale(t)
    return total


def _basis_trace(k1: TermKey, k2: TermKey) -> int:
    if k1[0] == "e" and k2[0] == "e":
        return int(k1[1] == k2[2] and k1[2] == k2[1])
    if k1[0] == "h" and k2[0] == "h":
        r, s = k1[1], k2[1]
        return 2 * (r == s) - (r == s + 1) - (s == r + 1)
    return 0


@dataclass(frozen=True)
class TorusAutomorphism:
    """Monomial map x_(key, lam) -> (-1)**flip * zeta**k * x_target(key, lam).

    The exponent is k = hom . (coords(key), lam), where coords(key) are the
    simple-root coordinates of the root of key (zero for h_r): hom is indexed
    by the simple roots and then the nu lattice generators.  With flip set,
    target transposes e_ij to e_ji, keeps h_r and negates lam; otherwise it is
    the identity.  The sign is (-1)**flip because transposition reverses the
    matrix commutator, and only -1 turns it back into a bracket homomorphism.
    """

    ell: int
    nu: int
    modulus: int
    flip: bool
    hom: tuple[int, ...]

    def target(self, key: TermKey, lam: IntVector) -> tuple[TermKey, IntVector]:
        if not self.flip:
            return key, lam
        return (("e", key[2], key[1]) if key[0] == "e" else key), tuple(-t for t in lam)

    def apply(self, x: TorusElement) -> TorusElement:
        if (x.ell, x.nu, x.modulus) != (self.ell, self.nu, self.modulus):
            raise ValueError("automorphism / element parameter mismatch")
        terms = []
        for key, lam, c in x.terms:
            c = c.rotate(self._degree_exponent(key, lam))
            terms.append((*self.target(key, lam), -c if self.flip else c))
        return _canonical(x.ell, x.nu, x.modulus, terms)

    def _degree_exponent(self, key: TermKey, lam: IntVector) -> int:
        """hom . (coords(key), lam) mod m: the power of zeta put on x_(key, lam)."""
        exp = sum(h * t for h, t in zip(self.hom[self.ell :], lam))
        if key[0] == "e":
            exp += sum(self.hom[r] * s for r, s in _unit_root(key[1], key[2]))
        return exp % self.modulus


def chevalley(t: LieTorus) -> TorusAutomorphism:
    """The involution x tensor p(t) -> -transpose(x) tensor p(1/t)."""
    return TorusAutomorphism(t.ell, t.nu, t.modulus, True, (0,) * (t.ell + t.nu))


def diagonal_from_hom(t: LieTorus, hom: Sequence[int]) -> TorusAutomorphism:
    """Diagonal automorphism scaling each graded piece by zeta ** hom(degree).

    The exponent vector is indexed by the simple roots (adjacent differences
    e_r - e_(r+1)) followed by the nu lattice generators.
    """
    hom = tuple(json_int(x, "homomorphism exponent") % t.modulus for x in hom)
    if len(hom) != t.ell + t.nu:
        raise ValueError("homomorphism needs rank + nullity exponents")
    return TorusAutomorphism(t.ell, t.nu, t.modulus, False, hom)


def compose(left: TorusAutomorphism, right: TorusAutomorphism) -> TorusAutomorphism:
    """The map left after right, as one monomial map.

    A flip negates both coords(key) and lam, so left's exponent is read off
    the image of right with the sign (-1)**right.flip.
    """
    if (left.ell, left.nu, left.modulus) != (right.ell, right.nu, right.modulus):
        raise ValueError("cannot compose automorphisms of different tori")
    m, sign = left.modulus, -1 if right.flip else 1
    hom = tuple((r + sign * l) % m for l, r in zip(left.hom, right.hom))
    return TorusAutomorphism(left.ell, left.nu, m, left.flip != right.flip, hom)


def _term_label(x: TorusElement) -> tuple[TermKey, IntVector] | None:
    if len(x.terms) != 1:
        return None
    key, lam, _ = x.terms[0]
    return key, lam


def verify_automorphism(t: LieTorus, a: TorusAutomorphism, w: Window) -> AxiomReport:
    """Exhaustive window checks: bracket compatibility, grading behavior, order, form."""
    basis = t.graded_basis(w)
    checks: dict = {}

    failures = []
    images = {id(x): a.apply(x) for x in basis}
    for x in basis:
        ax = images[id(x)]
        for y in basis:
            lhs = a.apply(bracket(x, y))
            rhs = bracket(ax, images[id(y)])
            if lhs != rhs:
                failures.append({"x": repr(x.terms[0][:2]), "y": repr(y.terms[0][:2])})
    checks["bracket_compatibility"] = {
        "passed": not failures,
        "pairs": len(basis) ** 2,
        "failures": failures[:5],
    }

    map_failures = []
    for x in basis:
        key, lam = _term_label(x)
        label = _term_label(images[id(x)])
        if label is None:
            map_failures.append({"x": repr((key, lam)), "reason": "image not graded"})
        elif label != a.target(key, lam):
            map_failures.append({"x": repr((key, lam)), "image": repr(label)})
    checks["root_space_mapping"] = {"passed": not map_failures, "failures": map_failures[:5]}

    order_failures = []
    power = 2 if a.flip else t.modulus
    for x in basis:
        y = x
        for _ in range(power):
            y = a.apply(y)
        if y != x:
            order_failures.append({"x": repr(_term_label(x))})
    checks["finite_order"] = {
        "passed": not order_failures,
        "power": power,
        "failures": order_failures[:5],
    }

    form_failures = []
    by_degree: dict[IntVector, list[TorusElement]] = {}
    for x in basis:
        _, lam = _term_label(x)
        by_degree.setdefault(lam, []).append(x)
    for x in basis:
        _, lam = _term_label(x)
        for y in by_degree.get(tuple(-v for v in lam), []):
            if trace_form(images[id(x)], images[id(y)]) != trace_form(x, y):
                form_failures.append({"x": repr(_term_label(x)), "y": repr(_term_label(y))})
    checks["form_preservation"] = {"passed": not form_failures, "failures": form_failures[:5]}

    return AxiomReport(w.bound, checks)


def jacobi_identity_report(t: LieTorus, w: Window) -> dict:
    """Check the Jacobi identity on all graded basis triples inside the window."""
    basis = t.graded_basis(w)
    failures = []
    count = 0
    for x in basis:
        for y in basis:
            xy = bracket(x, y)
            for z in basis:
                count += 1
                total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(
                    z, xy
                )
                if not total.is_zero:
                    failures.append(
                        (repr(_term_label(x)), repr(_term_label(y)), repr(_term_label(z)))
                    )
    return {"triples": count, "failures": failures[:5], "ok": not failures}


def extract_core_character(t: LieTorus, a: TorusAutomorphism, w: Window):
    """Read the character of a Cartan automorphism off its action on the graded basis.

    Every graded piece in the window, a root space e_ij tensor t^lam or an
    isotropic piece h_r tensor t^sigma, must be scaled by a root of unity;
    its exponent is the table value at its root, and all h_r at one sigma
    must agree.  The automorphism must fix the degree-zero Cartan part (value
    0 at degree 0), and the table must obey the shift rule value(sigma) =
    value(alpha+sigma) * value(-alpha) wherever alpha+sigma is in the window.
    Any disagreement raises instead of being patched over.

    Returns the table character together with a consistency report.
    """
    e_sys, m = t.ears, t.modulus
    table: dict[Root, int] = {}
    for x in t.graded_basis(w):
        key, lam = _term_label(x)
        exp = _scalar_action_exponent(x, a.apply(x), m)
        if exp is None:
            raise ValueError(
                f"automorphism is not a unity scalar on {key} at degree {lam}"
            )
        root = Root(t.finite_root(key[1], key[2]) if key[0] == "e" else None, lam)
        if table.setdefault(root, exp) != exp:
            raise ValueError(f"Cartan pieces at degree {lam} are scaled differently")
    if table[e_sys.zero_root]:
        raise ValueError("automorphism does not fix the Cartan part pointwise")
    isotropic = [r for r in table if r.finite is None]
    for alpha in table:
        if alpha.finite is None:
            continue
        for sigma in isotropic:
            shifted = table.get(e_sys.add(alpha, sigma))
            if shifted is None:
                continue
            if (shifted + table[e_sys.neg(alpha)] - table[sigma]) % m:
                raise ValueError(
                    f"isotropic value at {sigma.iso} breaks the shift rule at root {alpha}"
                )

    entries = tuple(sorted(table.items(), key=lambda pair: e_sys.sort_key(pair[0])))
    char = Character(e_sys, m, TableRule(w.bound, entries))
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


def _scalar_action_exponent(x: TorusElement, y: TorusElement, m: int) -> int | None:
    """The least k with y = zeta**k x, or None.

    Multiplying by zeta**k rotates every coefficient by k places and keeps
    the terms, so k is read off the first coefficient and checked on the rest.
    """
    if [t[:2] for t in x.terms] != [t[:2] for t in y.terms]:
        return None
    if not x.terms:
        return 0
    lead, image = x.terms[0][2].coeffs, y.terms[0][2].coeffs
    i = next(i for i, a in enumerate(lead) if a)
    for k in range(m):
        if image[(i + k) % m] == lead[i] and all(
            cx.rotate(k) == cy for (_, _, cx), (_, _, cy) in zip(x.terms, y.terms)
        ):
            return k
    return None
