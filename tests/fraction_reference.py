"""Fraction-based code kept as test oracles for the integer core.

Rational Gaussian eliminations for the determinant, the unimodular inverse
and coordinates in a lattice basis (`solve`), which the package reads off one
fraction-free Bareiss pass in `ears.lattice`, and for simple-root
coordinates, which the package reads off by walking up from the simple
roots.  Root arithmetic on realization coordinates (`FractionRoots`), which
the package replaced with integer simple-root and lattice coordinates.  The
rational construction of the finite root systems (`FractionFinite`), which
the package replaced with simple-root coordinates and a Gram matrix.  The
coset lookup on ambient vectors (`coset_class`), which the package reads from
class keys of lattice coordinates (`Semilattice.class_index`).  The ambient
lattice, S and L of a spec in ambient vectors (`ambient_model`), which the
package replaced with S and L in root coordinates.  The tests compare the two.
"""

import itertools
from fractions import Fraction


def det(m):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    prod = Fraction(sign)
    for i in range(n):
        prod *= a[i][i]
    if prod.denominator != 1:
        raise ArithmeticError("non-integral determinant")
    return int(prod)


def inverse_unimodular(m):
    """Inverse by Gauss-Jordan over the rationals; ValueError unless integral."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = tuple(tuple(a[i][n + j] for j in range(n)) for i in range(n))
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def simple_coords(f, root):
    """Coordinates of a root in the simple-root basis of `f`, by Gauss-Jordan."""
    simple = f.simple_roots
    a = [[Fraction(simple[j][i]) for j in range(f.rank)] + [Fraction(root[i])]
         for i in range(f.dim)]
    n, k = len(a), f.rank
    r = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if any(a[i][-1] for i in range(r, n)):
        raise ValueError("vector is outside the root span")
    out = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        out[col] = a[i][-1]
    if any(x.denominator != 1 for x in out):
        raise ValueError("non-integral simple-basis coordinates")
    return tuple(int(x) for x in out)


def _e8_roots():
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return roots


def _generate(t):
    """Roots in the usual orthonormal models, and the per-type inner-product scale."""
    fam, r = t.family, t.rank
    roots = []
    scale = Fraction(1)
    if fam == "A":
        n = r + 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [Fraction(0)] * n
                    v[i], v[j] = Fraction(1), Fraction(-1)
                    roots.append(tuple(v))
    elif fam in ("B", "C", "D"):
        for i in range(r):
            for j in range(i + 1, r):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [Fraction(0)] * r
                        v[i], v[j] = Fraction(si), Fraction(sj)
                        roots.append(tuple(v))
        if fam == "B":
            scale = Fraction(2)
            for i in range(r):
                for s in (1, -1):
                    v = [Fraction(0)] * r
                    v[i] = Fraction(s)
                    roots.append(tuple(v))
        elif fam == "C":
            for i in range(r):
                for s in (2, -2):
                    v = [Fraction(0)] * r
                    v[i] = Fraction(s)
                    roots.append(tuple(v))
    elif fam == "E":
        e8 = _e8_roots()
        if r == 8:
            roots = e8
        elif r == 7:
            roots = [v for v in e8 if v[6] + v[7] == 0]
        else:
            roots = [v for v in e8 if v[5] - v[6] == 0 and v[5] + v[7] == 0]
    elif fam == "F":
        scale = Fraction(2)
        for i in range(4):
            for s in (1, -1):
                v = [Fraction(0)] * 4
                v[i] = Fraction(s)
                roots.append(tuple(v))
        half = Fraction(1, 2)
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(tuple(half * s for s in signs))
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [Fraction(0)] * 4
                        v[i], v[j] = Fraction(si), Fraction(sj)
                        roots.append(tuple(v))
    elif fam == "G":
        for i in range(3):
            for j in range(3):
                if i != j:
                    v = [Fraction(0)] * 3
                    v[i], v[j] = Fraction(1), Fraction(-1)
                    roots.append(tuple(v))
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            v = [Fraction(0)] * 3
            v[i], v[j], v[k] = Fraction(2), Fraction(-1), Fraction(-1)
            roots.append(tuple(v))
            roots.append(tuple(-x for x in v))
    return roots, scale


class FractionFinite:
    """A finite root system built as the package once built it.

    Roots have `Fraction` coordinates in the usual orthonormal models, with
    halves for E and F, and the inner product is the dot product times a
    per-type `scale` that gives short roots squared length 2.  Every table
    is computed directly from the rational pairing.
    """

    def __init__(self, t):
        roots, self.scale = _generate(t)
        self.rank = t.rank
        self.roots = tuple(sorted(roots))
        self.dim = len(self.roots[0])
        self.norms = {r: self.inner(r, r) for r in self.roots}
        pos = [r for r in self.roots if r > tuple(Fraction(0) for _ in r)]
        pos_set = set(pos)
        simple = [
            p for p in pos
            if not any(q != p and tuple(a - b for a, b in zip(p, q)) in pos_set for q in pos)
        ]
        self.simple_roots = tuple(sorted(simple, reverse=True))

    def inner(self, x, y):
        return self.scale * sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))

    def pairing(self, beta, alpha):
        val = 2 * self.inner(beta, alpha) / self.norms[alpha]
        if val.denominator != 1:
            raise ValueError("non-integral pairing")
        return int(val)

    def coords(self):
        return tuple(simple_coords(self, r) for r in self.roots)

    def short_coords(self):
        return frozenset(simple_coords(self, r) for r in self.roots if self.norms[r] == 2)

    def pairing_table(self):
        return tuple(tuple(self.pairing(b, a) for a in self.roots) for b in self.roots)

    def reflect_table(self, pairing_table):
        index = {r: i for i, r in enumerate(self.roots)}
        return tuple(
            tuple(
                index[tuple(y - pairing_table[j][i] * x for x, y in zip(a, b))]
                for j, b in enumerate(self.roots)
            )
            for i, a in enumerate(self.roots)
        )


def _block_lattice(b1, b2, scale1=1):
    from ears.lattice import IntLattice

    n1, n2 = b1.dim, b2.dim
    rows = [tuple(scale1 * x for x in row) + (0,) * n2 for row in b1.basis]
    rows += [(0,) * n1 + row for row in b2.basis]
    return IntLattice(tuple(rows))


def ambient_model(spec):
    """(ambient lattice, S, L) of a spec, S and L in ambient vectors, L None
    when the spec has none.

    A twisted spec lives in the block lattice of the bases of S1 and S2, with
    S = S1 + span S2 and L = k span S1 + S2; a rank-one spec is its S, and a
    lattice spec the whole lattice.
    """
    from ears.lattice import Semilattice, vec_scale

    if spec.kind == "rank_one":
        return spec.s.lattice, spec.s, None
    if spec.kind == "lattice":
        return spec.lattice, Semilattice.full(spec.lattice), None
    k = spec.type.lacing
    b1, b2 = spec.s1.lattice, spec.s2.lattice
    ambient = _block_lattice(b1, b2)
    s_reps = [r1 + w2 for r1 in spec.s1.reps for w2 in Semilattice.full(b2).reps]
    l_reps = [vec_scale(k, w1) + r2 for w1 in Semilattice.full(b1).reps for r2 in spec.s2.reps]
    return (
        ambient,
        Semilattice(ambient, s_reps),
        Semilattice(_block_lattice(b1, b2, scale1=k), l_reps),
    )


class FractionRoots:
    """Root arithmetic on realization coordinates, as the package once did it.

    A root here is a pair (finite part, isotropic part): the finite part is a
    tuple of `Fraction`s in the model `FractionFinite(e.spec.type)` (None for
    an isotropic root), and the isotropic part is an ambient vector of
    `ambient_model(e.spec)`, whose lattice coordinates every classification
    solves for again.  The package now works on simple-root and root
    coordinates; `to_int` translates.
    """

    def __init__(self, e):
        self.e = e
        self.finite = f = FractionFinite(e.spec.type)
        self.short = frozenset(r for r in f.roots if f.norms[r] == 2)
        self.model = dict(zip(f.coords(), f.roots))
        self.ambient, self.S, self.L = ambient_model(e.spec)

    def classify(self, finite_part, iso):
        from ears.system import RootClass

        iso = tuple(int(x) for x in iso)
        if not self.ambient.contains(iso):
            raise ValueError(f"isotropic part {iso} lies outside the ambient lattice")
        if finite_part is None:
            in_support = any(
                self.S.contains(tuple(x - y for x, y in zip(iso, rep))) for rep in self.S.reps
            )
            return RootClass.ISOTROPIC if in_support else RootClass.NOT_A_ROOT
        fin = tuple(finite_part)
        if fin not in self.finite.norms:
            return RootClass.NOT_A_ROOT
        if fin in self.short:
            return RootClass.SHORT if self.S.contains(iso) else RootClass.NOT_A_ROOT
        if self.L is not None and self.L.contains(iso):
            return RootClass.LONG
        return RootClass.NOT_A_ROOT

    def is_root(self, r):
        return self.classify(*r).is_root

    def add(self, a, b):
        if a[0] is None:
            fin = b[0]
        elif b[0] is None:
            fin = a[0]
        else:
            fin = tuple(x + y for x, y in zip(a[0], b[0]))
            if all(x == 0 for x in fin):
                fin = None
        return fin, tuple(x + y for x, y in zip(a[1], b[1]))

    def scale_root(self, c, r):
        fin = None if r[0] is None else tuple(c * x for x in r[0])
        if fin is not None and all(x == 0 for x in fin):
            fin = None
        return fin, tuple(c * x for x in r[1])

    def enumerate_roots(self, bound):
        """Window roots in the package's order: isotropic block, then one per finite root."""
        rng = range(-bound, bound + 1)
        iso_list = [
            self.ambient.from_coords(x)
            for x in itertools.product(rng, repeat=self.e.nullity)
        ]
        out = [(None, iso) for iso in iso_list if self.classify(None, iso).is_root]
        for fin in self.finite.roots:
            for iso in iso_list:
                if fin in self.short:
                    if self.S.contains(iso):
                        out.append((fin, iso))
                elif self.L is not None and self.L.contains(iso):
                    out.append((fin, iso))
        return out

    def string_members(self, alpha, beta):
        """The n in [-8, 8] with beta + n * alpha a root; `verify_axioms` scans
        only [-3, 3], where every member of a finite string lies."""
        return {
            n
            for n in range(-8, 9)
            if self.is_root(self.add(beta, self.scale_root(n, alpha)))
        }

    def to_int(self, r):
        """The package's integer root for a realization-coordinate root."""
        from ears.system import Root

        fin = None if r[0] is None else simple_coords(self.finite, r[0])
        return Root(fin, self.ambient.coords(r[1]))

    def from_int(self, r):
        """Inverse of to_int."""
        fin = None if r.finite is None else self.model[r.finite]
        return fin, self.ambient.from_coords(r.iso)

    def value(self, c, r):
        """Exponent of character `c` on a realization root, without the integer root path."""
        from ears.characters import A1CosetRule, LatticeHomRule

        e = self.e
        coords = self.ambient.coords(r[1])
        if isinstance(c.rule, LatticeHomRule):
            fin = (0,) * e.rank if r[0] is None else simple_coords(self.finite, r[0])
            return sum(x * v for x, v in zip(fin + coords, c._std_values)) % c.modulus
        if isinstance(c.rule, A1CosetRule):
            i = coset_class(self.S, r[1])
            if r[0] is not None:
                return 0 if i == 0 else 1
            return 1 if (i is not None and i > 0) else 0
        if max((abs(x) for x in coords), default=0) > c.rule.window:
            raise ValueError("root lies outside the table window")
        return c.rule.lookup[self.to_int(r)] % c.modulus

    def root_json(self, r):
        fin = None if r[0] is None else list(simple_coords(self.finite, r[0]))
        return {"finite": fin, "iso": list(self.ambient.coords(r[1]))}

    def verify_character(self, c, bound, core_only=False):
        """The report JSON of `ears.characters` character verification, on Fractions."""
        from ears.characters import TableRule

        m = c.modulus
        roots = self.enumerate_roots(bound)
        exps = {r: self.value(c, r) for r in roots}
        firsts = [r for r in roots if r[0] is not None] if core_only else roots
        table = isinstance(c.rule, TableRule)
        checked = skipped = 0
        add_failures = []
        for alpha in firsts:
            for beta in roots:
                total = self.add(alpha, beta)
                if not self.is_root(total):
                    continue
                if total in exps:
                    et = exps[total]
                elif table:
                    skipped += 1
                    continue
                else:
                    et = self.value(c, total)
                checked += 1
                if (exps[alpha] + exps[beta] - et) % m:
                    add_failures.append({
                        "alpha": self.root_json(alpha),
                        "beta": self.root_json(beta),
                        "lhs": (exps[alpha] + exps[beta]) % m,
                        "rhs": et,
                    })
        inv_failures = []
        for r in roots:
            if (exps[r] + exps[self.scale_root(-1, r)]) % m:
                inv_failures.append({"root": self.root_json(r), "exponent": exps[r]})
        ok = not add_failures and not inv_failures
        return {
            "kind": "core" if core_only else "full",
            "window": bound,
            "ok": ok,
            "pairs_checked": checked,
            "pairs_skipped": skipped,
            "additivity_failures": add_failures[:5],
            "inverse_failures": inv_failures[:5],
        }


def coset_class(s, v):
    """Index i with v = reps[i] mod 2L for an ambient vector v, or None when absent."""
    k = s.key(v)
    if k is None:
        raise ValueError(f"vector {tuple(v)} lies outside the ambient lattice")
    return s.class_index.get(k)


def lattice_coords(e, vector):
    """Rational coordinates of an ambient vector in the ambient lattice basis
    of `ambient_model(e.spec)`.

    They are integers exactly when the vector is an ambient lattice point.
    """
    return solve(ambient_model(e.spec)[0].basis, vector)


def solve(basis, vector):
    """The rational x with basis . x = vector, for a nonsingular square basis,
    by Gauss-Jordan; x is integral exactly when vector lies in the lattice the
    columns of basis generate."""
    n = len(basis)
    a = [[Fraction(basis[i][j]) for j in range(n)] + [Fraction(vector[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))
