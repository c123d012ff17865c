"""Source guards over the `ears` package, read with `ast`.

Certificate and invariant checks must be explicit exceptions, which still run
under `python -O`, so the package has no `assert` statement.  The package
computes over the integers only, so no module imports `fractions`.  A window
is defined once, by `system.Window`, so the sup-norm box and the sup-norm test
are spelled nowhere else.  Every import sits at module top, so the layering
between modules is visible in their headers.  A function whose body only
passes its own parameters on to another callable is a second name for it, so
no such alias is defined unless something outside the package names it.  The
traced benchmark run wraps `ears` functions and methods by name, so every name
it lists must still exist.  Roots and the semilattices of a built system share
one coordinate system, which `system.build_ears` reads off a spec's bases, so
no module but `lattice` maps coordinates to ambient vectors (`from_coords`),
and none but `lattice` and `system` solves for coordinates (`coords`).
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ears"
MODULES = sorted(SRC.glob("*.py"))


# the sup-norm test, and a coordinate box running from -bound to bound
WINDOW_SPELLING = re.compile(r"max\(map\(abs|range\(\s*-[^)]*\.bound")


def window_lines(source: str) -> list[int]:
    return [i for i, line in enumerate(source.splitlines(), 1) if WINDOW_SPELLING.search(line)]


def assert_lines(source: str) -> list[int]:
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "fractions":
                return True
    return False


def function_import_lines(source: str) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = (n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom)))
            lines += [n.lineno for n in imports]
    return sorted(set(lines))


def bare_aliases(source: str) -> list[str]:
    """Functions (as `Class.name` for methods) whose body, after a docstring,
    is one `return g(...)` passing the function's own parameters in order, by
    position or as `p=p`.  A leading `self` or `cls` may be the callee."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_alias(node):
                found.append(prefix + node.name)

    def is_alias(fn) -> bool:
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            return False
        call = body[0].value
        if not isinstance(call, ast.Call):
            return False
        passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
        passed += [
            k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
            for k in call.keywords
        ]
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
        return passed == params or (params[:1] in (["self"], ["cls"]) and passed == params[1:])

    visit(ast.parse(source).body, "")
    return found


def method_calls(source: str, method: str) -> list[int]:
    """Lines of calls `X.method(...)`; an attribute read or a bare call is not one."""
    return [
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == method
    ]


# aliases that something outside the package names, with the reason
ALIAS_ALLOWED = {
    "build_torus": "bench/trace_calls.py and bench/setup_probe.py name it",
}


def test_guards_see_what_they_look_for():
    assert assert_lines("x = 1\nassert x, 'msg'\n") == [2]
    assert assert_lines("raise AssertionError('explicit')\n") == []
    assert imports_fractions("from fractions import Fraction\n")
    assert imports_fractions("def f():\n    import fractions\n")
    assert not imports_fractions("from .finite import Coords\n")
    assert window_lines("x = max(map(abs, r.iso), default=0)\n") == [1]
    assert window_lines("a\nfor t in range(-w.bound, w.bound + 1):\n") == [2]
    assert window_lines("for n in range(-8, 9):\n") == []
    assert function_import_lines("import os\ndef f():\n    from .x import y\n") == [3]
    assert function_import_lines("class A:\n    def f(self):\n        import os\n") == [3]
    assert function_import_lines("from .x import y\ndef f():\n    return y\n") == []
    assert bare_aliases("def f(a, b):\n    '''Doc.'''\n    return g(a, b)\n") == ["f"]
    assert bare_aliases("def f(a, b):\n    return g(a, b=b)\n") == ["f"]
    assert bare_aliases(
        "class A:\n    @classmethod\n    def f(cls, a, b):\n        return cls(a, b=b)\n"
    ) == ["A.f"]
    assert bare_aliases("def f(a, b):\n    return g(b, a)\n") == []
    assert bare_aliases("def f(a, b):\n    return g(a, b).core\n") == []
    assert bare_aliases("def f(a, b):\n    return g(a, 1, b)\n") == []
    assert bare_aliases("def f(self):\n    return g(self.x)\n") == []
    assert bare_aliases("def f(a):\n    x = a\n    return g(a)\n") == []
    assert method_calls("v = lat.from_coords(x)\n", "from_coords") == [1]
    assert method_calls("a\nc = e.S.lattice.coords(v)\n", "coords") == [2]
    assert method_calls("c = e.finite.coords\n", "coords") == []
    assert method_calls("c = coords(v)\n", "coords") == []
    assert method_calls("v = lat.from_coords(x)\n", "coords") == []


def test_package_modules_found():
    assert {"finite.py", "system.py", "characters.py", "torus.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(path.read_text())
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    assert not imports_fractions(path.read_text()), f"{path.name} imports fractions"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "system.py"], ids=lambda p: p.name
)
def test_window_spelled_only_in_system(path):
    lines = window_lines(path.read_text())
    assert not lines, f"{path.name} spells a window outside system.Window at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    lines = function_import_lines(path.read_text())
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_aliases(path):
    aliases = [name for name in bare_aliases(path.read_text()) if name not in ALIAS_ALLOWED]
    assert not aliases, f"{path.name} defines aliases that only pass their parameters on: {aliases}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_from_coords_only_in_lattice(path):
    lines = method_calls(path.read_text(), "from_coords")
    assert not lines, f"{path.name} maps coordinates to ambient vectors at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("lattice.py", "system.py")],
    ids=lambda p: p.name,
)
def test_coords_only_in_lattice_and_system(path):
    lines = method_calls(path.read_text(), "coords")
    assert not lines, f"{path.name} solves for lattice coordinates at lines {lines}"


def load_trace_calls():
    spec = importlib.util.spec_from_file_location(
        "trace_calls", ROOT / "bench" / "trace_calls.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    trace = load_trace_calls()
    missing = []
    for layer, names in trace.SPANNED.items():
        module = importlib.import_module(f"ears.{layer}")
        missing += [
            f"{layer}.{name}" for name in names if not callable(getattr(module, name, None))
        ]
    for layer, methods in trace.COUNTED.items():
        module = importlib.import_module(f"ears.{layer}")
        for cls_name, meth in methods:
            if not callable(getattr(getattr(module, cls_name, None), meth, None)):
                missing.append(f"{layer}.{cls_name}.{meth}")
    assert not missing, f"traced names missing from ears: {missing}"
