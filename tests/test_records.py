"""`ears.base.record` against `dataclasses.dataclass(frozen=True)`, its oracle.

Each record class of the package is declared a second time from its source:
the annotated names, defaults and `field(...)` options of the class body are
read with `ast`, every other attribute (methods, properties, cached
properties, `__post_init__`) is the record's own, and `dataclasses` decorates
the result.  Both classes are then called the same way, on field values taken
from real instances, and must agree on the fields, the outcome of the call
(with the message of any error), the repr, `==`, `hash`, and the errors of
assignment and deletion.  The record classes are collected from every module
of `src/ears`, so a class that moves between modules stays covered.
"""

import ast
import dataclasses
import importlib
import inspect
import textwrap
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ears.base import _MISSING, Window, record
from ears.characters import (
    Character,
    TableRule,
    UnityValue,
    coset_rule,
    extendability,
    standard_hom_character,
    verify_character,
)
from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice, solve_mod
from ears.system import EarsSpec, build_ears, enumerate_roots, verify_axioms
from ears.torus import CycScalar, build_torus, chevalley, diagonal_from_hom
from ears.weyl import Decomposition, check_reflectable, decompose, minimal_reflectable_size

from conftest import load_spec_file

SRC = Path(__file__).resolve().parent.parent / "src" / "ears"
MODULES = [importlib.import_module(f"ears.{p.stem}")
           for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
RECORDS = [
    cls for m in MODULES for cls in vars(m).values()
    if isinstance(cls, type) and cls.__module__ == m.__name__ and "__record_fields__" in vars(cls)
]
# what `record` adds to a class, and what every class has of its own
ADDED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
         "__record_fields__", "__dict__", "__weakref__"}


def dataclass_twin(cls: type) -> type:
    """cls declared again from its source, under `dataclasses.dataclass(frozen=True)`."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    ns = {k: v for k, v in vars(cls).items() if k not in ADDED}
    annotations = {}
    for stmt in body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        name = stmt.target.id
        annotations[name] = ast.unparse(stmt.annotation)
        ns.pop(name, None)
        if isinstance(stmt.value, ast.Call) and stmt.value.func.id == "field":
            options = {k.arg: ast.literal_eval(k.value) for k in stmt.value.keywords}
            ns[name] = dataclasses.field(**options)
        elif stmt.value is not None:
            ns[name] = ast.literal_eval(stmt.value)
    ns.update(__annotations__=annotations, __qualname__=cls.__qualname__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, ns))


@cache
def examples() -> dict[type, list]:
    """Instances of every record class, made by the package's own code."""
    a1 = build_ears(EarsSpec.rank_one(1, Semilattice.standard(1)))
    a2 = build_ears(EarsSpec.from_json(load_spec_file("a2_nu1.json")))
    b2 = build_ears(EarsSpec.from_json(load_spec_file("b2_nu2_twist1.json")))
    w0, w1 = Window(0), Window(1)
    hom = standard_hom_character(a2, (1, 2, 3), 4)
    table = Character(a1, 3, TableRule(1, tuple(
        (r, standard_hom_character(a1, (1, 2), 3).eval(r).exponent)
        for r in enumerate_roots(a1, w1)
    )))
    coset = Character(a1, 2, coset_rule(a1))
    base = [a1.root_from_coords((1, 0)), a1.root_from_coords((-1, 1))]
    report = verify_character(hom, w0)
    t = build_torus(2, 1, 2)
    out = [
        solve_mod([[1, 0], [0, 2]], [1, 1], 4), solve_mod([[1]], [1], 3),
        IntLattice.standard(2), IntLattice(((2, 0), (1, 1))),
        Semilattice.standard(1), Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1))),
        FiniteType("A", 1), FiniteType("B", 2), a1.finite, a2.finite,
        w0, Window(2), a1.spec, a2.spec, b2.spec, a1, a2,
        verify_axioms(a1, w1), verify_axioms(a2, w0),
        UnityValue(1, 4), UnityValue(0, 2), hom.rule, coset.rule, table.rule,
        hom, table, coset, report, report.core, verify_character(coset, w1),
        extendability(hom, w0), extendability(coset, w1),
        check_reflectable(a1, base, w1), check_reflectable(a1, base[:1], w1),
        minimal_reflectable_size(a1, w1, 3), decompose(a1, a1.root_from_coords((1, 1)), base, w1),
        Decomposition(()), CycScalar(3, (1, 0, 2)), CycScalar(1, (5,)),
        t, build_torus(2, 0, 3), chevalley(t), diagonal_from_hom(t, (1, 0, 1)),
    ]
    found: dict[type, list] = {}
    for x in out:
        found.setdefault(type(x), []).append(x)
    return found


def outcome(fn, *args, **kwargs):
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:  # the oracle compares whatever either side raises
        return False, (type(exc), str(exc))


def same_outcome(a, b) -> None:
    assert a[0] == b[0]
    if not a[0]:
        assert a == b


def draw_call(data, fields, values):
    """(args, kwargs) for a call on `values`: by position, by keyword, with
    defaults left out, or one of the errors a call can make."""
    init = [f for f in fields if f.init]
    names = [f.name for f in init]
    required = [f.name for f in init if f.default is _MISSING]
    kind = data.draw(st.sampled_from(["good", "missing", "extra", "unknown", "twice"]))
    dropped = set()
    if kind == "missing" and required:
        dropped = set(data.draw(st.lists(st.sampled_from(required), min_size=1, unique=True)))
    top = min([names.index(n) for n in dropped] + [len(names)])
    k = data.draw(st.integers(1 if kind == "twice" and top else 0, top))
    args = [values[n] for n in names[:k]]
    rest = [n for n in names[k:] if n not in dropped
            and (n in required or data.draw(st.booleans()))]
    kwargs = {n: values[n] for n in data.draw(st.permutations(rest))}
    if kind == "extra":
        args = [values[n] for n in names] + [data.draw(st.integers())]
        kwargs = data.draw(st.sampled_from([{}, {"bogus": 0}, {n: values[n] for n in names[:1]}]))
    elif kind == "unknown":
        kwargs["bogus"] = 0
    elif kind == "twice" and k:
        kwargs[names[data.draw(st.integers(0, k - 1))]] = args[0]
    return args, kwargs


def test_every_record_class_is_covered():
    assert len(RECORDS) == 22
    assert set(RECORDS) == set(examples())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_matches_dataclass(cls, data):
    twin = dataclass_twin(cls)
    fields = cls.__record_fields__
    assert [f.name for f in fields] == [f.name for f in dataclasses.fields(twin)]
    obj, other = (data.draw(st.sampled_from(examples()[cls])) for _ in range(2))
    names = [f.name for f in fields if f.init]
    values = {n: getattr(obj, n) for n in names}
    for f in fields:  # a field that `==` skips may differ
        if f.init and not f.compare and data.draw(st.booleans()):
            values[f.name] = getattr(other, f.name)
    args, kwargs = draw_call(data, fields, values)
    made, made_twin = outcome(cls, *args, **kwargs), outcome(twin, *args, **kwargs)
    same_outcome(made, made_twin)
    if not made[0]:
        return
    x, xt = made[1], made_twin[1]
    assert repr(x) == repr(xt)
    assert all(getattr(x, f.name) == getattr(xt, f.name) for f in fields)
    same_outcome(outcome(hash, x), outcome(hash, xt))
    if outcome(hash, x)[0]:
        assert hash(x) == hash(xt)
    y, yt = cls(*[getattr(other, n) for n in names]), twin(*[getattr(other, n) for n in names])
    assert (x == y) == (xt == yt) and (x != y) == (xt != yt)
    assert x == x and not x == xt and not xt == x and x != xt
    stranger = data.draw(st.sampled_from([v[0] for k, v in examples().items() if k is not cls]))
    assert not x == stranger and x != stranger
    for name in [f.name for f in fields] + ["unrelated"]:
        for act in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
            done, done_twin = outcome(act, x), outcome(act, xt)
            assert not done[0] and issubclass(done[1][0], AttributeError)
            assert done[1][1] == done_twin[1][1]


def test_fields_follow_those_of_a_record_base():
    """A record subclass lists its base's fields first, as a dataclass does,
    and a field it declares again keeps its place and takes the new default.
    An instance of a subclass with the same fields equals no base instance."""

    def declare(decorate):
        @decorate
        class Base:
            a: int
            b: int = 1

        @decorate
        class Sub(Base):
            c: int = 2
            a: int = 0

        @decorate
        class Same(Base):
            pass

        return Base, Sub, Same

    (base, ours, same), (_, theirs, _) = (
        declare(record), declare(dataclasses.dataclass(frozen=True)))
    assert base(5) != same(5) and not same(5) == base(5)
    assert [f.name for f in ours.__record_fields__] == ["a", "b", "c"]
    assert [f.name for f in dataclasses.fields(theirs)] == ["a", "b", "c"]
    for args in [(), (5,), (5, 6, 7)]:
        assert repr(ours(*args)).split("(")[1] == repr(theirs(*args)).split("(")[1]
        assert hash(ours(*args)) == hash(theirs(*args))
