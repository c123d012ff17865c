"""Characters on extended affine root systems.

A character assigns roots of unity to roots, multiplicatively on sums that
stay inside the system.  Values are held as exponents modulo a fixed order m,
so every comparison is exact integer arithmetic.  Three rule kinds exist:

* a root-lattice homomorphism determined by values on a lattice basis,
* the rank-one coset rule (values +-1 read off the coset of 2L),
* a finite table over a window.

The module also decides extendability of a windowed character to a lattice
homomorphism, producing either the extending homomorphism or an integer
relation among window roots that certifies the obstruction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Sequence

from .lattice import (
    IntLattice,
    IntVector,
    Semilattice,
    inverse_unimodular,
    json_int,
    json_int_rows,
    json_object,
    parity,
    solve_mod,
)
from .system import (
    Classes,
    Ears,
    EarsSpec,
    Root,
    Window,
    build_ears,
    enumerate_roots,
    index_formula,
    root_from_json,
    root_to_json,
)
from .weyl import check_reflectable, decompose_all


@dataclass(frozen=True)
class UnityValue:
    """The root of unity zeta_m ** exponent, stored by exponent."""

    exponent: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.exponent < self.modulus:
            raise ValueError("exponent must be reduced mod the modulus")


@dataclass(frozen=True)
class LatticeHomRule:
    """Homomorphism on the root lattice: exponents on a chosen basis.

    Basis vectors are written in root-lattice coordinates (simple roots first,
    then the isotropic lattice basis) and must form a unimodular matrix.
    """

    basis: tuple[IntVector, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class A1CosetRule:
    """Rank-one rule: +1 on roots over 2L, -1 over the nontrivial cosets of S.

    Isotropic values: +1 on 2L and on (S+S) minus S, -1 on S minus 2L.  Only
    order 2 is meaningful here, and the rule is only a character when sums of
    3 to 6 distinct nonzero representatives avoid 2L.
    """


@dataclass(frozen=True)
class TableRule:
    """Explicit exponent table over a window of roots."""

    window: int
    entries: tuple[tuple[Root, int], ...]
    box: Window = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", Window(self.window))

    @cached_property
    def lookup(self) -> dict[Root, int]:
        return dict(self.entries)


def sum_free_violation(s: Semilattice) -> tuple[int, ...] | None:
    """An index set of 3 to 6 distinct nonzero reps whose sum falls in 2L, or None.

    The nonzero reps have distinct nonzero class keys, so such a set exists
    exactly when two different sets of at most 3 reps have equal key sums mod
    2; their symmetric difference is then one.
    """
    keys = [s.key(r) for r in s.reps]
    seen: dict[IntVector, tuple[int, ...]] = {}
    for k in (1, 2, 3):
        for combo in itertools.combinations(range(1, s.coset_count), k):
            total = parity(map(sum, zip(*(keys[i] for i in combo))))
            first = seen.setdefault(total, combo)
            if first is not combo:
                return tuple(sorted(set(first) ^ set(combo)))
    return None


@dataclass(frozen=True)
class Character:
    """A modulus-m character rule attached to a specific root system."""

    ears: Ears
    modulus: int
    rule: LatticeHomRule | A1CosetRule | TableRule

    def __post_init__(self) -> None:
        if json_int(self.modulus, "modulus") < 1:
            raise ValueError("modulus must be >= 1")
        n = self.ears.rank + self.ears.nullity
        if isinstance(self.rule, LatticeHomRule):
            for v in self.rule.values:
                json_int(v, "value")
            if len(self.rule.basis) != n or any(len(v) != n for v in self.rule.basis):
                raise ValueError("homomorphism basis must be square of rank + nullity")
            if len(self.rule.values) != n:
                raise ValueError("one exponent per basis vector required")
            try:
                self._std_values
            except ValueError:
                raise ValueError("homomorphism basis must be unimodular") from None
        elif isinstance(self.rule, A1CosetRule):
            if self.ears.spec.kind != "rank_one":
                raise ValueError("coset rule requires a rank-one system")
            if self.modulus != 2:
                raise ValueError("coset rule is an order-2 character")
            violation = sum_free_violation(self.ears.S)
            if violation is not None:
                raise ValueError(
                    f"coset rule is not a character: representatives {violation} "
                    "sum into 2L"
                )
        else:
            for _, x in self.rule.entries:
                json_int(x, "exponent")
            if len(self.rule.lookup) != len(self.rule.entries):
                raise ValueError("table lists a root more than once")
            if non_roots := [r for r in self.rule.lookup if not self.ears.is_root(r)]:
                raise ValueError(f"table entry {non_roots[0]} is not a root")

    @cached_property
    def _std_values(self) -> IntVector:
        """Exponents of the homomorphism on the standard root-lattice basis."""
        rule = self.rule
        n = len(rule.values)
        mat = tuple(tuple(rule.basis[j][i] for j in range(n)) for i in range(n))
        inv = inverse_unimodular(mat)
        return tuple(
            sum(rule.values[i] * inv[i][j] for i in range(n)) % self.modulus
            for j in range(n)
        )

    def eval(self, r: Root) -> UnityValue:
        """Value on a root, as an exponent of the fixed primitive m-th root of unity.

        This is the checked entry point: it classifies r and raises ValueError
        on a non-root.  Loops over roots they have already enumerated or
        classified read `_exponent` instead, so each root is classified once.
        The result stays a `UnityValue` because the benchmark's `roundtrip`
        task reads `eval(r).exponent`.
        """
        if not self.ears.is_root(r):
            raise ValueError(f"{r} does not classify as a root")
        return UnityValue(self._exponent(r), self.modulus)

    @cached_property
    def _period(self) -> IntVector | None:
        """A q such that the exponent, and whether a root, depend only on the
        finite part and iso mod q; None for a table, which has no period.

        `Ears.period` covers membership and a homomorphism reads the
        coordinates mod m; the coset rule reads them mod 2, and its m is 2.
        """
        if isinstance(self.rule, TableRule):
            return None
        return tuple(lcm(q, self.modulus) for q in self.ears.period)

    def _exponent(self, r: Root) -> int:
        """The exponent on r, which the caller has already classified as a root."""
        if isinstance(self.rule, LatticeHomRule):
            coords = self.ears.root_coords(r)
            return sum(c * v for c, v in zip(coords, self._std_values)) % self.modulus
        if isinstance(self.rule, A1CosetRule):
            i = self.ears.S.class_index.get(parity(r.iso))  # S rep of iso mod 2L
            if r.finite is not None:
                return 0 if i == 0 else 1
            return 1 if (i is not None and i > 0) else 0
        if not self.rule.box.contains(r.iso):
            raise ValueError("root lies outside the table window")
        try:
            return self.rule.lookup[r] % self.modulus
        except KeyError:
            raise ValueError(f"table has no entry for root {r}") from None

    def to_json(self) -> dict:
        rule: dict
        if isinstance(self.rule, LatticeHomRule):
            rule = {
                "kind": "hom",
                "basis": [list(v) for v in self.rule.basis],
                "values": list(self.rule.values),
            }
        elif isinstance(self.rule, A1CosetRule):
            rule = {"kind": "a1coset"}
        else:
            rule = {
                "kind": "table",
                "window": self.rule.window,
                "entries": [
                    {"root": root_to_json(self.ears, r), "exponent": x}
                    for r, x in self.rule.entries
                ],
            }
        return {"modulus": self.modulus, "rule": rule}


def character_from_json(e: Ears, obj: dict) -> Character:
    """Read a character file; a key its object does not take is rejected."""
    m = json_int(json_object(obj, "character", ("modulus", "rule"))["modulus"], "modulus")
    rule_obj = obj["rule"]
    kind = json_object(rule_obj, "rule")["kind"]
    if kind == "hom":
        json_object(rule_obj, "hom rule", ("kind", "basis", "values"))
        rule: LatticeHomRule | A1CosetRule | TableRule = LatticeHomRule(
            json_int_rows(rule_obj["basis"], "basis entry"),
            tuple(json_int(x, "value") for x in rule_obj["values"]),
        )
    elif kind == "a1coset":
        json_object(rule_obj, "a1coset rule", ("kind",))
        rule = A1CosetRule()
    elif kind == "table":
        json_object(rule_obj, "table rule", ("kind", "window", "entries"))
        entries = [json_object(x, "table entry", ("root", "exponent")) for x in rule_obj["entries"]]
        rule = TableRule(
            json_int(rule_obj["window"], "table window"),
            tuple(
                (root_from_json(e, ent["root"]), json_int(ent["exponent"], "exponent"))
                for ent in entries
            ),
        )
    else:
        raise ValueError(f"unknown character rule kind {kind!r}")
    return Character(e, m, rule)


def standard_hom_character(e: Ears, values: Sequence[int], modulus: int) -> Character:
    """Homomorphism character from exponents on the standard root-lattice basis."""
    n = e.rank + e.nullity
    if len(values) != n:
        raise ValueError("need one exponent per standard basis vector")
    if json_int(modulus, "modulus") < 1:  # checked before the values are reduced by it
        raise ValueError("modulus must be >= 1")
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return Character(e, modulus, LatticeHomRule(basis, tuple(v % modulus for v in values)))


@dataclass(frozen=True)
class CharacterCheckReport:
    """Multiplicativity check over window pairs, with explicit failure witnesses.

    `additivity_failures` holds the first five failing pairs in loop order;
    `inverse_failures` holds every failing root.  A full report carries the
    core report of the same pass in `core`, and both carry the window roots
    they were checked on in `roots`; neither field is part of the JSON.
    """

    kind: str
    window: int
    pairs_checked: int
    pairs_skipped: int
    additivity_failures: tuple[dict, ...]
    inverse_failures: tuple[dict, ...]
    core: CharacterCheckReport | None = field(default=None, repr=False, compare=False)
    roots: Sequence[Root] = field(default=(), repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.additivity_failures and not self.inverse_failures

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "window": self.window,
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "pairs_skipped": self.pairs_skipped,
            "additivity_failures": list(self.additivity_failures[:5]),
            "inverse_failures": list(self.inverse_failures[:5]),
        }


def verify_character(c: Character, w: Window) -> CharacterCheckReport:
    """Multiplicativity over all window pairs; `core` holds the core report.

    The pair loop runs once per pair of root classes (see `Classes`), and the
    core report restricts the same tallies to non-isotropic first classes.
    """
    e = c.ears
    m = c.modulus
    roots = enumerate_roots(e, w)
    classes = Classes.of_roots(roots, c._period)
    exps = {k: c._exponent(r) for k, r, _ in classes.reps}
    in_table = isinstance(c.rule, TableRule)
    tally: dict = {}  # first class -> [pairs checked, pairs skipped]
    bad: dict = {}
    for ka, alpha, na in classes.reps:
        ea = exps[ka]
        row = tally[ka] = [0, 0]
        for kb, beta, nb in classes.reps:
            total = e.add(alpha, beta)
            if not e.is_root(total):
                continue
            if in_table and not w.contains(total.iso):
                # a table has no value outside the window
                row[1] += na * nb
                continue
            et = c._exponent(total)
            row[0] += na * nb
            if (ea + exps[kb] - et) % m:
                bad.setdefault(ka, {})[kb] = ((ea + exps[kb]) % m, et)
    unpaired = [k for k, r, _ in classes.reps if (exps[k] + c._exponent(e.neg(r))) % m]
    inv_failures = tuple(
        {"root": root_to_json(e, roots[i]), "exponent": exps[classes.keys[i]]}
        for i in classes.positions(unpaired)
    )

    def report(kind: str, firsts: list, core: CharacterCheckReport | None = None):
        failing = {k: bad[k] for k in firsts if k in bad}
        add_failures = tuple(
            {"alpha": root_to_json(e, roots[i]), "beta": root_to_json(e, roots[j]),
             "lhs": lhs, "rhs": rhs}
            for i, j, (lhs, rhs) in itertools.islice(classes.pairs(failing), 5)
        )
        checked = sum(tally[k][0] for k in firsts)
        skipped = sum(tally[k][1] for k in firsts)
        return CharacterCheckReport(
            kind, w.bound, checked, skipped, add_failures, inv_failures, core, roots
        )

    core = report("core", [k for k, r, _ in classes.reps if r.finite is not None])
    return report("full", list(tally), core)


def verify_core_character(c: Character, w: Window) -> CharacterCheckReport:
    """Multiplicativity over pairs whose first member is non-isotropic.

    This is the `core` of the full report: both come from one pass.
    """
    return verify_character(c, w).core


def verify_square_shift_identity(c: Character, w: Window) -> dict:
    """Check value(alpha)^2 = value(alpha+sigma) * value(alpha-sigma) on the window.

    Runs once per pair of root classes (see `Classes`).
    """
    e = c.ears
    m = c.modulus
    classes = Classes.of_roots(enumerate_roots(e, w), c._period)
    iso_roots = [x for x in classes.reps if x[1].finite is None]
    noniso = [x for x in classes.reps if x[1].finite is not None]
    table = c.rule.box if isinstance(c.rule, TableRule) else None
    checked = 0
    bad: dict = {}
    for ks, sigma, ns in iso_roots:
        for ka, alpha, na in noniso:
            plus = e.add(alpha, sigma)
            minus = e.add(alpha, e.neg(sigma))
            if not (e.is_root(plus) and e.is_root(minus)):
                continue
            if table is not None and not (
                table.contains(plus.iso) and table.contains(minus.iso)
            ):
                continue
            lhs = 2 * c._exponent(alpha)
            rhs = c._exponent(plus) + c._exponent(minus)
            checked += ns * na
            if (lhs - rhs) % m:
                bad.setdefault(ks, {})[ka] = None
    roots = classes.items
    failures = [
        {"alpha": root_to_json(e, roots[j]), "sigma": root_to_json(e, roots[i])}
        for i, j, _ in itertools.islice(classes.pairs(bad), 5)
    ]
    return {"checked": checked, "failures": failures, "ok": not bad}


def build_a1_counterexample(
    nullity: int = 6, taus: Sequence[Sequence[int]] | None = None
) -> Character:
    """The rank-one character that does not extend to the root lattice.

    Defaults take the standard basis vectors as nonzero representatives plus
    the sum of the first six, which forces any lattice extension to assign the
    last representative the value +1 while the rule assigns -1.
    """
    if taus is None:
        if nullity < 6:
            raise ValueError("default representatives need nullity >= 6")
        taus = [
            tuple(int(i == j) for i in range(nullity)) for j in range(nullity)
        ]
        taus.append(tuple(1 if i < 6 else 0 for i in range(nullity)))
    reps = (tuple(0 for _ in range(nullity)),) + tuple(tuple(t) for t in taus)
    s = Semilattice(IntLattice.standard(nullity), reps)
    e = build_ears(EarsSpec.rank_one(nullity, s))
    return Character(e, 2, A1CosetRule())


@dataclass(frozen=True)
class ExtendabilityResult:
    """SAT with an extending homomorphism, or UNSAT with a checkable relation."""

    sat: bool
    hom: Character | None
    witness: tuple[tuple[Root, int], ...] | None
    modulus: int

    def witness_json(self, e: Ears) -> list[dict]:
        return [
            {"root": root_to_json(e, r), "coeff": c} for r, c in (self.witness or ())
        ]


def recheck_witness(
    c: Character, witness: Sequence[tuple[Root, int]]
) -> tuple[bool, dict]:
    """Independent re-check: coefficients cancel the roots exactly but not the exponents."""
    e = c.ears
    n = e.rank + e.nullity
    coord_sum = [0] * n
    exp_sum = 0
    for r, coeff in witness:
        coords = e.root_coords(r)
        coord_sum = [a + coeff * b for a, b in zip(coord_sum, coords)]
        exp_sum += coeff * c.eval(r).exponent
    ok = not any(coord_sum) and exp_sum % c.modulus != 0
    return ok, {"coord_sum": coord_sum, "exponent_sum": exp_sum % c.modulus}


def extendability(c: Character, w: Window) -> ExtendabilityResult:
    """Decide whether the character extends to a root-lattice homomorphism.

    Every window root contributes the linear constraint coords . h = exponent
    over Z/m; a solution is re-verified against the character on the window,
    and an UNSAT certificate must be an exact integer relation among window
    roots whose value sum is nonzero mod m.
    """
    e = c.ears
    m = c.modulus
    report = verify_character(c, w)
    if not report.ok:
        raise ValueError("input fails character verification on the window")
    n = e.rank + e.nullity
    roots = report.roots
    coord_rows = [e.root_coords(r) for r in roots]
    exps = [c._exponent(r) for r in roots]
    res = solve_mod(coord_rows, exps, m)
    if res.sat:
        hom = standard_hom_character(e, res.solution, m)
        if any(hom._exponent(r) != x for r, x in zip(roots, exps)):
            raise AssertionError("solver produced a non-extending homomorphism")
        return ExtendabilityResult(True, hom, None, m)
    cert = res.certificate
    ra = [sum(cert[i] * coord_rows[i][j] for i in range(len(roots))) for j in range(n)]
    if any(x % m for x in ra):
        raise AssertionError("UNSAT certificate does not kill the constraints mod m")
    # A certificate that cancels only mod m comes from an SNF diagonal entry
    # d_i with gcd(d_i, m) > 1; no integer combination of window roots can
    # repair it, because ra/m is then outside their integer row span.
    if any(ra):
        raise ValueError("window roots do not span the root lattice; enlarge the window")
    if sum(co * ex for co, ex in zip(cert, exps)) % m == 0:
        raise AssertionError("UNSAT certificate has value sum 0 mod m")
    witness = tuple((r, co) for r, co in zip(roots, cert) if co)
    return ExtendabilityResult(False, None, witness, m)


def extend_ind_zero(c: Character, base: Sequence[Root], w: Window) -> Character:
    """Constructive extension for index-zero systems from values on a reflectable basis.

    The base must be a unimodular basis of the root lattice made of
    non-isotropic roots whose reflections cover the window.  Agreement with
    the input character is certified by telescoping along prefix
    decompositions, which forces the extension value step by step.
    """
    e = c.ears
    m = c.modulus
    ind_r, _ = index_formula(e)
    if ind_r != 0:
        raise ValueError(f"system has index {ind_r}; constructive extension needs 0")
    n = e.rank + e.nullity
    if len(base) != n:
        raise ValueError("base must have rank + nullity elements")
    coords = tuple(e.root_coords(b) for b in base)
    values = tuple(c.eval(b).exponent for b in base)
    hom = Character(e, m, LatticeHomRule(coords, values))
    cover = check_reflectable(e, base, w)
    if not cover.covered:
        raise ValueError("base reflections do not cover the window")
    decs = decompose_all(e, base, w)
    for r in cover.roots:
        if r.finite is not None:
            dec = decs.get(r)
            if dec is None:
                raise ValueError(f"cannot decompose {r} inside the window")
            acc = 0
            for (sign, b), prefix in zip(dec.terms, dec.prefixes(e)):
                acc = (acc + c._exponent(e.scale_root(sign, b))) % m
                if c._exponent(prefix) != acc:
                    raise ValueError(
                        f"telescoping failed at prefix {prefix}: the character is "
                        "not multiplicative along the decomposition"
                    )
        if hom._exponent(r) != c._exponent(r):
            raise ValueError(
                f"extension disagrees with the character at {r}; the data is "
                "not index-zero consistent or the window is too small"
            )
    return hom
