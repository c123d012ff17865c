"""Desk-scale multiloop realization: traceless matrices over Laurent polynomials.

Elements are finite sums of (matrix unit or Cartan difference) tensor a
Laurent monomial in nu variables, with coefficients in the integer group
ring of Z/m (cyclic convolution, so zeta ** m = 1 holds by construction and
all equality checks are exact).  This realizes the simply-laced type A
system over the full lattice: root spaces are matrix positions graded by
Laurent degree, the degree-zero Cartan part plays the role of H.

Inside the module an element is its `LieTorus` and a flat tuple of terms
(key id, degree, coefficients): key ids index the tables the torus holds,
and coefficients are int tuples of length m.  The public key tuples and
`CycScalar` appear only at the edge: in `TorusElement.terms`, in the
constructors that take them, which check them against the torus, and in the
value of `trace_form`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import add, mul, neg
from typing import Iterable, Sequence

from .characters import Character, TableRule, verify_core_character
from .finite import FiniteType
from .lattice import IntVector, json_int
from .system import AxiomReport, Ears, EarsSpec, Root, Window, build_ears

TermKey = tuple  # ("e", i, j) or ("h", r)
Coeffs = tuple[int, ...]  # one integer per power of zeta
Term = tuple[int, IntVector, Coeffs]  # (key id, Laurent degree, coefficients)


@dataclass(frozen=True)
class CycScalar:
    """Element of Z[Z/m]: integer coefficient vector for (1, zeta, ..., zeta**(m-1)).

    This is the value type of the edge: coefficients go in and come out of
    `TorusElement` and `trace_form` as `CycScalar`s, and the constructor
    checks them.  The group-ring arithmetic runs on coefficient tuples inside
    the module; `*` stays because the traced benchmark counts its calls.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if json_int(self.modulus, "modulus") < 1:
            raise ValueError("modulus must be >= 1")
        if len(self.coeffs) != self.modulus:
            raise ValueError("need exactly one coefficient per group element")
        if not all(type(c) is int for c in self.coeffs):
            raise ValueError(f"group-ring coefficients {self.coeffs} are not integers")

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        if self.modulus != other.modulus:
            raise ValueError("scalar modulus mismatch")
        return _cyc(self.modulus, _convolve(self.coeffs, other.coeffs))


def _cyc(m: int, coeffs: Coeffs) -> CycScalar:
    """A `CycScalar` from kernel coefficients, skipping the constructor's checks."""
    c = object.__new__(CycScalar)
    object.__setattr__(c, "modulus", m)
    object.__setattr__(c, "coeffs", coeffs)
    return c


# Group-ring arithmetic on coefficient tuples.


def _rotate(c: Coeffs, k: int) -> Coeffs:
    """zeta**k * c for 0 <= k < m."""
    return c[-k:] + c[:-k] if k else c


def _scaled(c: Coeffs, q: int) -> Coeffs:
    return tuple([q * a for a in c])


def _convolve(a: Coeffs, b: Coeffs) -> Coeffs:
    """a * b in Z[Z/m] by cyclic convolution."""
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % m] += x * y
    return tuple(out)


def _product(units: dict[Coeffs, tuple[int, int]], a: Coeffs, b: Coeffs) -> Coeffs:
    """a * b in Z[Z/m].  When either factor is a signed monomial +-zeta**k
    (a key of `LieTorus.units`) the other is only rotated and signed."""
    unit, other = units.get(a), b
    if unit is None:
        unit, other = units.get(b), a
        if unit is None:
            return _convolve(a, b)
    sign, k = unit
    other = _rotate(other, k)
    return other if sign == 1 else tuple(map(neg, other))


# The basis of one shape and its structure constants.


@cache
def _unit_root(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Nonzero simple-root coordinates (r, +-1) of e_i - e_j, the root of e_ij.

    The simple roots are the adjacent differences e_r - e_(r+1), so the same
    pairs expand e_ii - e_jj over the Cartan differences h_r = e_rr - e_(r+1)(r+1).
    """
    if i < j:
        return tuple((r, 1) for r in range(i, j))
    return tuple((r, -1) for r in range(j, i))


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


def _basis_trace(k1: TermKey, k2: TermKey) -> int:
    if k1[0] == "e" and k2[0] == "e":
        return int(k1[1] == k2[2] and k1[2] == k2[1])
    if k1[0] == "h" and k2[0] == "h":
        r, s = k1[1], k2[1]
        return 2 * (r == s) - (r == s + 1) - (s == r + 1)
    return 0


@dataclass(frozen=True)
class LieTorus:
    """Traceless (ell+1) x (ell+1) matrices over nu-variable Laurent polynomials.

    The torus holds the tables its elements share.  Key ids follow the sort
    order of the keys, so sorting terms by (id, degree) sorts them by (key,
    degree); `brackets` and `traces` are indexed by id1 * len(keys) + id2.
    """

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

    @cached_property
    def keys(self) -> tuple[TermKey, ...]:
        n = self.size
        return tuple(sorted(
            [("e", i, j) for i in range(n) for j in range(n) if i != j]
            + [("h", r) for r in range(self.ell)]
        ))

    @cached_property
    def ids(self) -> dict[TermKey, int]:
        return {key: k for k, key in enumerate(self.keys)}

    @cached_property
    def brackets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(
            tuple(sorted((self.ids[key], sign) for key, sign in _basis_bracket(k1, k2)))
            for k1 in self.keys for k2 in self.keys
        )

    @cached_property
    def traces(self) -> tuple[int, ...]:
        return tuple(_basis_trace(k1, k2) for k1 in self.keys for k2 in self.keys)

    @cached_property
    def units(self) -> dict[Coeffs, tuple[int, int]]:
        """Each signed monomial +-zeta**k of Z[Z/m], mapped to (sign, k)."""
        return {
            _rotate(_scaled(self.one, sign), k): (sign, k)
            for k in range(self.modulus) for sign in (1, -1)
        }

    @cached_property
    def one(self) -> Coeffs:
        return (1,) + (0,) * (self.modulus - 1)

    def _degree(self, lam: Sequence[int]) -> IntVector:
        lam = tuple(json_int(x, "Laurent degree") for x in lam)
        if len(lam) != self.nu:
            raise ValueError("Laurent degree has wrong length")
        return lam

    def zero(self) -> TorusElement:
        return _element(self, ())

    def _unit(self, key: TermKey, lam: Sequence[int] | None) -> TorusElement:
        lam = (0,) * self.nu if lam is None else self._degree(lam)
        return _element(self, ((self.ids[key], lam, self.one),))

    def e(self, i: int, j: int, lam: Sequence[int] | None = None) -> TorusElement:
        """Matrix unit e_ij tensor a Laurent monomial."""
        if not (0 <= i <= self.ell and 0 <= j <= self.ell) or i == j:
            raise ValueError("matrix unit indices must be distinct and in range")
        return self._unit(("e", i, j), lam)

    def h(self, r: int, lam: Sequence[int] | None = None) -> TorusElement:
        """Cartan difference e_rr - e_(r+1)(r+1) tensor a Laurent monomial."""
        if not 0 <= r < self.ell:
            raise ValueError("Cartan index out of range")
        return self._unit(("h", r), lam)

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


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True reach the checks
def build_torus(ell: int, nu: int, modulus: int) -> LieTorus:
    """The torus of one shape, built once, so its elements share its tables."""
    return LieTorus(ell, nu, modulus)


def _merge(terms: Sequence[Term]) -> tuple[Term, ...]:
    """The sum of the given terms: equal (key, degree) merged, zeros dropped, sorted."""
    if len(terms) == 1:
        return tuple(terms) if any(terms[0][2]) else ()
    acc: dict[tuple[int, IntVector], Coeffs] = {}
    for k, lam, c in terms:
        prev = acc.get((k, lam))
        acc[(k, lam)] = c if prev is None else tuple(map(add, prev, c))
    return tuple((k, lam, c) for (k, lam), c in sorted(acc.items()) if any(c))


class TorusElement:
    """Canonical finite sum of graded basis terms with group-ring coefficients.

    `TorusElement(ell, nu, modulus, terms)` takes (key, degree, CycScalar)
    triples and raises `ValueError` on a key, degree or coefficient that does
    not belong to the torus; equal (key, degree) are merged.  `terms` gives
    the sum back with zeros dropped, sorted by (key, degree).
    """

    __slots__ = ("_torus", "_flat")

    def __init__(
        self, ell: int, nu: int, modulus: int,
        terms: Iterable[tuple[TermKey, Sequence[int], CycScalar]],
    ):
        t = build_torus(ell, nu, modulus)
        flat = []
        for key, lam, c in terms:
            k = t.ids.get(key)
            if k is None:
                raise ValueError(f"{key!r} is not a basis key of sl_{ell + 1}")
            lam = t._degree(lam)
            if not isinstance(c, CycScalar) or c.modulus != modulus:
                raise ValueError(f"coefficient {c!r} is not in Z[Z/{modulus}]")
            flat.append((k, lam, c.coeffs))
        self._torus, self._flat = t, _merge(flat)

    @property
    def ell(self) -> int:
        return self._torus.ell

    @property
    def nu(self) -> int:
        return self._torus.nu

    @property
    def modulus(self) -> int:
        return self._torus.modulus

    @property
    def terms(self) -> tuple[tuple[TermKey, IntVector, CycScalar], ...]:
        keys, m = self._torus.keys, self._torus.modulus
        return tuple((keys[k], lam, _cyc(m, c)) for k, lam, c in self._flat)

    @property
    def is_zero(self) -> bool:
        return not self._flat

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        s, t = self._torus, other._torus
        return self._flat == other._flat and (s is t or s == t)

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        return (f"TorusElement(ell={self.ell}, nu={self.nu}, modulus={self.modulus}, "
                f"terms={self.terms!r})")

    def _check(self, other: "TorusElement") -> None:
        if not (self._torus is other._torus or self._torus == other._torus):
            raise ValueError("torus parameter mismatch")

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        return _element(self._torus, _merge(self._flat + other._flat))

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def __neg__(self) -> "TorusElement":
        return self.scale(-1)

    def scale(self, c: CycScalar | int) -> "TorusElement":
        t = self._torus
        if isinstance(c, CycScalar):
            if c.modulus != t.modulus:
                raise ValueError("scalar modulus mismatch")
            coeffs = c.coeffs
        else:
            coeffs = _scaled(t.one, json_int(c, "scalar"))
        return _element(t, _merge(
            [(k, lam, _product(t.units, v, coeffs)) for k, lam, v in self._flat]
        ))


def _element(t: LieTorus, flat: tuple[Term, ...]) -> TorusElement:
    """An element from canonical kernel terms, which need no checks."""
    x = object.__new__(TorusElement)
    x._torus, x._flat = t, flat
    return x


def bracket(x: TorusElement, y: TorusElement) -> TorusElement:
    """Lie bracket: matrix commutator with Laurent degrees adding."""
    x._check(y)
    out: list[Term] = []
    _bracket_into(out, x._torus, x._flat, y._flat)
    return _element(x._torus, _merge(out))


def _bracket_into(
    out: list[Term], t: LieTorus, xs: tuple[Term, ...], ys: tuple[Term, ...]
) -> None:
    """Append the terms of [x, y] to `out`, not yet merged."""
    table, n, units = t.brackets, len(t.keys), t.units
    for k1, lam1, c1 in xs:
        row = k1 * n
        for k2, lam2, c2 in ys:
            pieces = table[row + k2]
            if pieces:
                lam = tuple(map(add, lam1, lam2))
                c = _product(units, c1, c2)
                for k, sign in pieces:
                    out.append((k, lam, c if sign == 1 else _scaled(c, sign)))


def trace_form(x: TorusElement, y: TorusElement) -> CycScalar:
    """Invariant form: trace of the matrix product, kept at Laurent degree zero."""
    x._check(y)
    t = x._torus
    table, n = t.traces, len(t.keys)
    total = (0,) * t.modulus
    for k1, lam1, c1 in x._flat:
        for k2, lam2, c2 in y._flat:
            q = table[k1 * n + k2]
            if q and not any(map(add, lam1, lam2)):
                total = tuple(map(add, total, _scaled(_product(t.units, c1, c2), q)))
    return _cyc(t.modulus, total)


@dataclass(frozen=True)
class TorusAutomorphism:
    """Monomial map x_(key, lam) -> (-1)**flip * zeta**k * x_target(key, lam).

    The exponent is k = hom . (coords(key), lam), where coords(key) are the
    simple-root coordinates of the root of key (zero for h_r): hom is indexed
    by the simple roots and then the nu lattice generators.  With flip set,
    target transposes e_ij to e_ji, keeps h_r and negates lam; otherwise it is
    the identity.  The sign is (-1)**flip because transposition reverses the
    matrix commutator, and only -1 turns it back into a bracket homomorphism.
    The constructor reduces hom mod m.
    """

    ell: int
    nu: int
    modulus: int
    flip: bool
    hom: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.flip) is not bool:
            raise ValueError(f"flip must be a bool, got {self.flip!r}")
        if json_int(self.modulus, "modulus") < 1:
            raise ValueError("scalar modulus must be >= 1")
        hom = tuple(json_int(x, "homomorphism exponent") % self.modulus for x in self.hom)
        if len(hom) != json_int(self.ell, "ell") + json_int(self.nu, "nu"):
            raise ValueError("homomorphism needs rank + nullity exponents")
        object.__setattr__(self, "hom", hom)

    def target(self, key: TermKey, lam: IntVector) -> tuple[TermKey, IntVector]:
        if not self.flip:
            return key, lam
        return (("e", key[2], key[1]) if key[0] == "e" else key), tuple(-t for t in lam)

    def apply(self, x: TorusElement) -> TorusElement:
        t = x._torus
        if (t.ell, t.nu, t.modulus) != (self.ell, self.nu, self.modulus):
            raise ValueError("automorphism / element parameter mismatch")
        terms = []
        for k, lam, c in x._flat:
            key = t.keys[k]
            c = _rotate(c, self._degree_exponent(key, lam))
            if self.flip:
                key, lam = self.target(key, lam)
                k, c = t.ids[key], tuple(map(neg, c))
            terms.append((k, lam, c))
        # without the flip, keys and degrees stay in place and in order
        return _element(t, _merge(terms) if self.flip else tuple(terms))

    def _degree_exponent(self, key: TermKey, lam: IntVector) -> int:
        """hom . (coords(key), lam) mod m: the power of zeta put on x_(key, lam)."""
        exp = sum(map(mul, self.hom[self.ell :], lam))
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
    return TorusAutomorphism(t.ell, t.nu, t.modulus, False, hom)


def compose(left: TorusAutomorphism, right: TorusAutomorphism) -> TorusAutomorphism:
    """The map left after right, as one monomial map.

    A flip negates both coords(key) and lam, so left's exponent is read off
    the image of right with the sign (-1)**right.flip.
    """
    if (left.ell, left.nu, left.modulus) != (right.ell, right.nu, right.modulus):
        raise ValueError("cannot compose automorphisms of different tori")
    sign = -1 if right.flip else 1
    hom = tuple(r + sign * l for l, r in zip(left.hom, right.hom))
    return TorusAutomorphism(left.ell, left.nu, left.modulus, left.flip != right.flip, hom)


def _term_label(x: TorusElement) -> tuple[TermKey, IntVector] | None:
    """(key, degree) of a one-term element, or None."""
    if len(x._flat) != 1:
        return None
    k, lam, _ = x._flat[0]
    return x._torus.keys[k], lam


def _image(t: LieTorus, a: TorusAutomorphism, x: TorusElement) -> TorusElement:
    """a(x), which must be an element of t: a subclass's `apply` may return anything."""
    y = a.apply(x)
    if not isinstance(y, TorusElement) or not (y._torus is t or y._torus == t):
        raise ValueError(f"automorphism image {y!r} is not an element of {t}")
    return y


def verify_automorphism(t: LieTorus, a: TorusAutomorphism, w: Window) -> AxiomReport:
    """Exhaustive window checks: bracket compatibility, grading behavior, order, form.

    Bracket compatibility compares a([x, y]) with [a x, a y] on every pair of
    the window's basis.  `a.apply` is a function of the element, so it runs
    once per distinct element: at (2,2,2) window 2, once for each of the
    2,107 distinct values of [x, y], not once for each of the 40,000 pairs.
    """
    basis = t.graded_basis(w)
    checks: dict = {}
    memo: dict[tuple[Term, ...], TorusElement] = {}

    def image(x: TorusElement) -> TorusElement:
        y = memo.get(x._flat)
        if y is None:
            y = memo[x._flat] = _image(t, a, x)
        return y

    failures = []
    images = [image(x) for x in basis]
    for x, ax in zip(basis, images):
        for y, ay in zip(basis, images):
            if image(bracket(x, y))._flat != bracket(ax, ay)._flat:
                failures.append({"x": repr(_term_label(x)), "y": repr(_term_label(y))})
    checks["bracket_compatibility"] = {
        "passed": not failures,
        "pairs": len(basis) ** 2,
        "failures": failures[:5],
    }

    map_failures = []
    for x, ax in zip(basis, images):
        key, lam = _term_label(x)
        label = _term_label(ax)
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
            y = image(y)
        if y != x:
            order_failures.append({"x": repr(_term_label(x))})
    checks["finite_order"] = {
        "passed": not order_failures,
        "power": power,
        "failures": order_failures[:5],
    }

    form_failures = []
    by_degree: dict[IntVector, list[tuple[TorusElement, TorusElement]]] = {}
    for x, ax in zip(basis, images):
        _, lam = _term_label(x)
        by_degree.setdefault(lam, []).append((x, ax))
    for x, ax in zip(basis, images):
        _, lam = _term_label(x)
        for y, ay in by_degree.get(tuple(-v for v in lam), []):
            if trace_form(ax, ay) != trace_form(x, y):
                form_failures.append({"x": repr(_term_label(x)), "y": repr(_term_label(y))})
    checks["form_preservation"] = {"passed": not form_failures, "failures": form_failures[:5]}

    return AxiomReport(w.bound, checks)


def jacobi_identity_report(t: LieTorus, w: Window) -> dict:
    """Check the Jacobi identity on all graded basis triples inside the window.

    The basis-pair brackets are computed once; each triple then sums
    [x, [y, z]] + [y, [z, x]] + [z, [x, y]] in one accumulator.
    """
    basis = t.graded_basis(w)
    flats = [x._flat for x in basis]
    pairs = [[bracket(x, y)._flat for y in basis] for x in basis]
    failures = []
    count = 0
    for i, x in enumerate(flats):
        for j, y in enumerate(flats):
            yz_row, xy = pairs[j], pairs[i][j]
            for k, z in enumerate(flats):
                count += 1
                yz, zx = yz_row[k], pairs[k][i]
                total: list[Term] = []
                if yz:
                    _bracket_into(total, t, x, yz)
                if zx:
                    _bracket_into(total, t, y, zx)
                if xy:
                    _bracket_into(total, t, z, xy)
                if total and _merge(total):
                    failures.append(
                        tuple(repr(_term_label(basis[n])) for n in (i, j, k))
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
        exp = _scalar_action_exponent(x, _image(t, a, x), m)
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
    xs, ys = x._flat, y._flat
    same = x._torus is y._torus or x._torus == y._torus
    if not same or [t[:2] for t in xs] != [t[:2] for t in ys]:
        return None
    if not xs:
        return 0
    lead, image = xs[0][2], ys[0][2]
    i = next(i for i, a in enumerate(lead) if a)
    for k in range(m):
        if image[(i + k) % m] == lead[i] and all(
            _rotate(cx, k) == cy for (_, _, cx), (_, _, cy) in zip(xs, ys)
        ):
            return k
    return None
