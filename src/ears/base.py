"""What every layer shares: records, JSON integer checks, the window, reports.

Nothing here imports another `ears` module, so a layer that needs only
these, like `torus`, loads nothing else.
"""

from __future__ import annotations

import itertools
import sys
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def json_int(value, field: str) -> int:
    """An int; floats, strings and booleans are rejected, not coerced.

    This is the one integer check, for JSON input and library arguments alike.
    """
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def size_int(value, field: str) -> int:
    """A `json_int` of at most `sys.maxsize`, for a value that becomes a
    range bound, a repeat count or a tuple length, which Python caps there."""
    if json_int(value, field) > sys.maxsize:
        raise ValueError(f"{field} must be at most {sys.maxsize}, got {value}")
    return value


_MISSING = object()


class field:
    """One field of a `record`, with the options `dataclasses.field` takes:
    its default, and whether `__init__` takes it, the repr shows it, and `==`
    and `hash` read it."""

    __slots__ = ("name", "default", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, init=True, repr=True, compare=True):
        self.name = None
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def record(cls: type) -> type:
    """`dataclasses.dataclass(frozen=True)`, built from closures.

    The fields are the annotated names of the class, after those of its
    record bases; each has a plain default, a `field`, or nothing.  Added:
    `__init__` (by position or keyword, with the interpreter's messages for a
    bad call, then `__post_init__` if the class has one), a repr of the shown
    fields, `==` and `hash` on the tuple of compared fields, and assignment
    and deletion that raise `AttributeError`; these replace any the class
    body defines, which no record does.  Nothing is compiled:
    `dataclasses` imports `inspect` and generates source for every class,
    which a short command paid at each start.
    """
    fields = {f.name: f for base in cls.__mro__[-1:0:-1]
              for f in base.__dict__.get("__record_fields__", ())}
    for name in cls.__dict__.get("__annotations__", {}):
        value = getattr(cls, name, _MISSING)
        if isinstance(value, field):
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
        else:
            value = field(value)
        value.name = name
        fields[name] = value
    fields = tuple(fields.values())
    names = tuple(f.name for f in fields if f.init)
    defaults = tuple(f.default for f in fields if f.init)
    position = {name: i for i, name in enumerate(names)}
    compared = tuple(f.name for f in fields if f.compare)
    # the tuple of compared fields; attrgetter needs a name and gives one bare
    fetch = attrgetter(*compared) if len(compared) > 1 else (
        lambda self: tuple([getattr(self, name) for name in compared]))
    shown = tuple(f.name for f in fields if f.repr)
    frozen = frozenset(f.name for f in fields)
    post_init = hasattr(cls, "__post_init__")
    call = f"{cls.__qualname__}.__init__()"

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call other than one value per field by position."""
        values = [*args[: len(names)], *defaults[len(args):]]
        for key, value in kwargs.items():
            i = position.get(key)
            if i is None:
                raise TypeError(f"{call} got an unexpected keyword argument {key!r}")
            if i < len(args):
                raise TypeError(f"{call} got multiple values for argument {key!r}")
            values[i] = value
        if len(args) > len(names):
            top = len(names) + 1  # counting self
            optional = sum(d is not _MISSING for d in defaults)
            takes = f"from {top - optional} to {top}" if optional else str(top)
            plural = "s" if optional or top > 1 else ""
            raise TypeError(f"{call} takes {takes} positional argument{plural} "
                            f"but {len(args) + 1} were given")
        missing = [repr(n) for n, v in zip(names, values) if v is _MISSING]
        if missing:
            listed = ", ".join(missing[:-1]) + "," * (len(missing) > 2)
            listed = f"{listed} and {missing[-1]}" if listed else missing[0]
            raise TypeError(f"{call} missing {len(missing)} required positional "
                            f"argument{'s' * (len(missing) > 1)}: {listed}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fetch(self) == fetch(other)
        return NotImplemented

    def __hash__(self):
        return hash(fetch(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in frozen:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in frozen:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = fields
    return cls


def json_object(value, field: str, keys: Iterable[str] | None = None) -> dict:
    """A JSON object; a list, string or number is rejected, and so is any key
    outside `keys` when they are given."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    if keys is not None and not set(value) <= set(keys):
        raise ValueError(f"{field} does not take {sorted(set(value) - set(keys))}")
    return value


def json_int_rows(rows: Iterable[Sequence[int]], field: str) -> IntMatrix:
    """Rows as a tuple of int tuples, each entry checked by `json_int`."""
    return tuple(tuple(json_int(x, field) for x in row) for row in rows)


@record
class Window:
    """Finite truncation: cap on the sup-norm of isotropic basis coordinates.

    This class is the one definition of a window: `points` lists the vectors
    inside it in lexicographic order, and `contains` tests one vector.
    """

    bound: int

    def __post_init__(self) -> None:
        if size_int(self.bound, "window bound") < 0:
            raise ValueError("window bound must be >= 0")
        # a range holds at most sys.maxsize items, and a coordinate takes 2b + 1 values
        if 2 * self.bound + 1 > sys.maxsize:
            raise ValueError(f"window bound must be at most {sys.maxsize // 2}, got {self.bound}")

    @staticmethod
    def norm(v: Sequence[int]) -> int:
        """Sup-norm of a coordinate vector (0 for the empty vector)."""
        return max(map(abs, v), default=0)

    def contains(self, v: Sequence[int]) -> bool:
        return self.norm(v) <= self.bound

    def points(self, dim: int) -> Iterator[IntVector]:
        """Integer vectors of length dim with sup-norm <= bound, in lex order."""
        return itertools.product(range(-self.bound, self.bound + 1), repeat=dim)


@record
class AxiomReport:
    """Outcome of named window checks, with witnesses for failures.

    Used for the system axioms and for the torus automorphism checks.  The
    axiom report keeps the window roots (`system.Root`s) it enumerated in
    `roots`, which is not part of the JSON.
    """

    window: int
    checks: dict
    roots: Sequence[Root] = field(default=(), repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self) -> dict:
        return {"window": self.window, "ok": self.ok, "checks": self.checks}
