"""The torus kernel as first written, kept as the oracle for the flat kernel.

Elements are read and built through the public `TorusElement` API only:
`terms` as (key, degree, CycScalar) triples in, the constructor out.  The
group-ring product, the structure constants, the automorphism's exponent
and the window-check loop are copies of the first version, so they share
no arithmetic with `ears.torus`: every product is a cyclic convolution, every
bracket builds each term's scalar, and `verify_automorphism` applies the map
to each of the |basis|**2 brackets separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ears.system import AxiomReport
from ears.torus import CycScalar, TorusAutomorphism, TorusElement


def times(a: CycScalar, b: CycScalar) -> CycScalar:
    """Cyclic convolution in Z[Z/m]."""
    if a.modulus != b.modulus:
        raise ValueError("scalar modulus mismatch")
    m = a.modulus
    out = [0] * m
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                out[(i + j) % m] += x * y
    return CycScalar(m, tuple(out))


def plus(a: CycScalar, b: CycScalar) -> CycScalar:
    return CycScalar(a.modulus, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def scaled(a: CycScalar, q: int) -> CycScalar:
    return CycScalar(a.modulus, tuple(q * x for x in a.coeffs))


def zeta(m: int, k: int = 1) -> CycScalar:
    return rotated(CycScalar(m, (1,) + (0,) * (m - 1)), k)


def rotated(a: CycScalar, k: int) -> CycScalar:
    k %= a.modulus
    if not k:
        return a
    return CycScalar(a.modulus, a.coeffs[-k:] + a.coeffs[:-k])


def canonical(ell, nu, modulus, terms) -> TorusElement:
    """The sum of the given terms: equal (key, degree) merged, zeros dropped, sorted."""
    acc = {}
    for key, lam, c in terms:
        prev = acc.get((key, lam))
        acc[(key, lam)] = c if prev is None else plus(prev, c)
    return TorusElement(
        ell, nu, modulus,
        tuple((key, lam, c) for (key, lam), c in sorted(acc.items()) if any(c.coeffs)),
    )


@cache
def unit_root(i: int, j: int) -> tuple[tuple[int, int], ...]:
    if i < j:
        return tuple((r, 1) for r in range(i, j))
    return tuple((r, -1) for r in range(j, i))


def bracket(x: TorusElement, y: TorusElement) -> TorusElement:
    if (x.ell, x.nu, x.modulus) != (y.ell, y.nu, y.modulus):
        raise ValueError("torus parameter mismatch")
    terms = []
    for key1, lam1, c1 in x.terms:
        for key2, lam2, c2 in y.terms:
            lam = tuple(a + b for a, b in zip(lam1, lam2))
            c = times(c1, c2)
            for key, sign in basis_bracket(key1, key2):
                terms.append((key, lam, c if sign == 1 else scaled(c, sign)))
    return canonical(x.ell, x.nu, x.modulus, terms)


@cache
def basis_bracket(k1, k2):
    if k1[0] == "h" and k2[0] == "h":
        return ()
    if k1[0] == "h":
        _, i, j = k2
        r = k1[1]
        c = (r == i) - (r == j) - (r + 1 == i) + (r + 1 == j)
        return ((k2, c),) if c else ()
    if k2[0] == "h":
        return tuple((key, -sign) for key, sign in basis_bracket(k2, k1))
    _, i, j = k1
    _, k, l = k2
    if j == k and i == l:
        return tuple((("h", r), sign) for r, sign in unit_root(i, j))
    if j == k:
        return ((("e", i, l), 1),)
    if l == i:
        return ((("e", k, j), -1),)
    return ()


def trace_form(x: TorusElement, y: TorusElement) -> CycScalar:
    if (x.ell, x.nu, x.modulus) != (y.ell, y.nu, y.modulus):
        raise ValueError("torus parameter mismatch")
    total = CycScalar(x.modulus, (0,) * x.modulus)
    for key1, lam1, c1 in x.terms:
        for key2, lam2, c2 in y.terms:
            if any(a + b for a, b in zip(lam1, lam2)):
                continue
            t = basis_trace(key1, key2)
            if t:
                total = plus(total, scaled(times(c1, c2), t))
    return total


def basis_trace(k1, k2) -> int:
    if k1[0] == "e" and k2[0] == "e":
        return int(k1[1] == k2[2] and k1[2] == k2[1])
    if k1[0] == "h" and k2[0] == "h":
        r, s = k1[1], k2[1]
        return 2 * (r == s) - (r == s + 1) - (s == r + 1)
    return 0


def target(a: TorusAutomorphism, key, lam):
    if not a.flip:
        return key, lam
    return (("e", key[2], key[1]) if key[0] == "e" else key), tuple(-t for t in lam)


def degree_exponent(a: TorusAutomorphism, key, lam) -> int:
    exp = sum(h * t for h, t in zip(a.hom[a.ell :], lam))
    if key[0] == "e":
        exp += sum(a.hom[r] * s for r, s in unit_root(key[1], key[2]))
    return exp % a.modulus


def apply(a: TorusAutomorphism, x: TorusElement) -> TorusElement:
    if (x.ell, x.nu, x.modulus) != (a.ell, a.nu, a.modulus):
        raise ValueError("automorphism / element parameter mismatch")
    terms = []
    for key, lam, c in x.terms:
        c = rotated(c, degree_exponent(a, key, lam))
        terms.append((*target(a, key, lam), scaled(c, -1) if a.flip else c))
    return canonical(x.ell, x.nu, x.modulus, terms)


@dataclass(frozen=True)
class ReferenceMap(TorusAutomorphism):
    """A monomial map whose `apply` is the first version's."""

    def apply(self, x: TorusElement) -> TorusElement:
        return apply(self, x)


def _term_label(x: TorusElement):
    if len(x.terms) != 1:
        return None
    key, lam, _ = x.terms[0]
    return key, lam


def verify_automorphism(t, a: TorusAutomorphism, w) -> AxiomReport:
    """The window checks as first written: `a.apply` once per pair, no memo."""
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
        elif label != target(a, key, lam):
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
    by_degree = {}
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
