"""Source guards over the `ears` package, read with `ast`.

Certificate and invariant checks must be explicit exceptions, which still run
under `python -O`, so the package has no `assert` statement.  The package
computes over the integers only, so no module imports `fractions`.  The traced
benchmark run wraps `ears` functions and methods by name, so every name it
lists must still exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ears"
MODULES = sorted(SRC.glob("*.py"))


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


def test_guards_see_what_they_look_for():
    assert assert_lines("x = 1\nassert x, 'msg'\n") == [2]
    assert assert_lines("raise AssertionError('explicit')\n") == []
    assert imports_fractions("from fractions import Fraction\n")
    assert imports_fractions("def f():\n    import fractions\n")
    assert not imports_fractions("from .finite import Coords\n")


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
