"""Source guards over the `ears` package, read with `ast`.

Certificate and invariant checks must be explicit exceptions, which still run
under `python -O`, so the package has no `assert` statement.  The package
computes over the integers only, so no module imports `fractions`.  Every
command is a fresh process, so start-up cost counts: no module imports
`dataclasses`, which imports `inspect` and compiles code for each class, or
`hashlib`, which maps OpenSSL (the CLI falls back to it only on a Python
without the builtin sha256), and no command loads either.  A window
is defined once, by `system.Window`, so the sup-norm box and the sup-norm test
are spelled nowhere else.  Every import in a library module sits at module
top, so the layering between modules is visible in their headers.  The CLI
imports at top only `system`, the layer every command runs, and each command
handler imports the further layers it calls as its first statements (always
`from .<layer> import ...`): without a bytecode cache, compiling layers a
command never calls was most of a short command's time.  A function whose body
only passes its own parameters on to another callable is a second name for it,
so no such alias is defined unless something outside the package names it.
The traced benchmark run wraps `ears` functions and methods by name, so every
name it lists must still exist.  Roots and the semilattices of a built system
share one coordinate system, which `system.build_ears` reads off a spec's
bases, so no module but `lattice` maps coordinates to ambient vectors
(`from_coords`), and none but `lattice` and `system` solves for coordinates
(`coords`).  Names are imported from their modules, so `import ears` loads no
layer, a module loads only the layers it imports, and a command only the
layers it runs.  The package holds what a command or the benchmark runs:
every public function, class, method and property is reached from another
part of `src/ears` or from `bench/*.py`, and code only tests call lives in
`tests/`.  A square matrix is answered by one fraction-free Bareiss pass,
whose entries stay within Hadamard's bound, while a Smith form's can grow
without bound on a dense square basis; so only `snf`, `solve_mod` and
`generates`, where the Smith form's choices matter, call `lattice._smith`.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
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


def imported_modules(source: str, fallbacks: bool = True) -> set[str]:
    """The top-level names of the modules a source imports by absolute name.
    An import inside an `except ImportError` handler counts only with
    `fallbacks`."""
    tree = ast.parse(source)
    skipped = set()
    if not fallbacks:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
                    and node.type.id == "ImportError"):
                skipped |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def function_import_lines(source: str) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = (n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom)))
            lines += [n.lineno for n in imports]
    return sorted(set(lines))


def late_import_lines(source: str, layers: set[str]) -> list[int]:
    """Function-level imports other than `from .<layer> import ...` statements
    that lead their function's body (after a docstring, if any)."""
    lines = set(function_import_lines(source))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            for stmt in body:
                if not (isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                        and stmt.module in layers):
                    break
                lines.discard(stmt.lineno)
    return sorted(lines)


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


IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def unreached_definitions(
    library: dict[str, str], users: list[str], strings_from: tuple[str, ...] = ()
) -> list[str]:
    """Public definitions of `library` (module name to source) that nothing reaches.

    A module-level function or class must be named (as a name or an attribute)
    and a method or property of a module-level class must be read as an
    attribute, somewhere in `library` outside its own definition or anywhere
    in `users`.  The identifiers inside the string constants of `strings_from`
    count as both.  Dunders and names with a leading underscore are exempt.
    Returns `module.name` and `module.Class.name`, sorted.
    """
    defs = []  # (module, qualified name, name, is a method, first line, last line)
    names, attrs = [], []  # (module, line, identifier)
    for module, source in library.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defs.append((module, node.name, node.name, False, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (module, f"{node.name}.{m.name}", m.name, True, m.lineno, m.end_lineno)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_")
                ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.append((module, n.lineno, n.id))
            elif isinstance(n, ast.Attribute):
                attrs.append((module, n.lineno, n.attr))
    outside_names, outside_attrs = set(), set()
    for source in users:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                outside_names.add(n.id)
            elif isinstance(n, ast.Attribute):
                outside_attrs.add(n.attr)
    for source in strings_from:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                found = set(IDENTIFIER.findall(n.value))
                outside_names |= found
                outside_attrs |= found
    unreached = []
    for module, qualname, name, method, first, last in defs:
        if name in outside_attrs or (not method and name in outside_names):
            continue
        uses = attrs if method else names + attrs
        if not any(ident == name and (mod != module or not first <= line <= last)
                   for mod, line, ident in uses):
            unreached.append(f"{module}.{qualname}")
    return sorted(unreached)


def callers(source: str, callee: str) -> list[str]:
    """The functions (as `Class.name` for methods, the outermost one for a
    nested function) that call `callee` by name or as an attribute; a call
    outside any function is listed as `<module>`.  Sorted."""
    found = set()

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{prefix}{child.name}.")
                continue
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = prefix + child.name
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == callee
                        or isinstance(func, ast.Attribute) and func.attr == callee):
                    found.add(owner or "<module>")
            visit(child, inner, prefix)

    visit(ast.parse(source), None, "")
    return sorted(found)


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
    assert imported_modules("from fractions import Fraction\n") == {"fractions"}
    assert imported_modules("def f():\n    import fractions.x\n") == {"fractions"}
    assert imported_modules("from .finite import Coords\n") == set()
    fallback = "try:\n    import _sha256\nexcept ImportError:\n    import hashlib\n"
    assert imported_modules(fallback) == {"_sha256", "hashlib"}
    assert imported_modules(fallback, fallbacks=False) == {"_sha256"}
    assert imported_modules("try:\n    import a\nexcept KeyError:\n    import b\n",
                            fallbacks=False) == {"a", "b"}
    assert window_lines("x = max(map(abs, r.iso), default=0)\n") == [1]
    assert window_lines("a\nfor t in range(-w.bound, w.bound + 1):\n") == [2]
    assert window_lines("for n in range(-8, 9):\n") == []
    assert function_import_lines("import os\ndef f():\n    from .x import y\n") == [3]
    assert function_import_lines("class A:\n    def f(self):\n        import os\n") == [3]
    assert function_import_lines("from .x import y\ndef f():\n    return y\n") == []
    layers = {"x", "z"}
    lead = 'def f():\n    """Doc."""\n    from .x import y\n    from .z import w\n    return y\n'
    assert late_import_lines(lead, layers) == []
    assert late_import_lines("def f():\n    a = 1\n    from .x import y\n", layers) == [3]
    assert late_import_lines("def f():\n    import os\n", layers) == [2]
    assert late_import_lines("def f():\n    from ears.x import y\n", layers) == [2]
    assert late_import_lines("def f():\n    from .q import y\n", layers) == [2]
    assert late_import_lines("def f():\n    if a:\n        from .x import y\n", layers) == [3]
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
    # a call by name, as an attribute, from a method, from a nested function
    # and at module level; a bare name read is not a call
    planted_smith = (
        "def solve_mod(a):\n    return _smith(a)\n\n\n"
        "def generates(a):\n    def inner():\n        return _smith(a)\n    return inner\n\n\n"
        "class IntLattice:\n"
        "    def coords(self, v):\n        return lattice._smith(self.basis)\n\n"
        "    def dim(self):\n        return _smith\n\n\n"
        "x = _smith([])\n"
    )
    assert callers(planted_smith, "_smith") == [
        "<module>", "IntLattice.coords", "generates", "solve_mod"
    ]
    assert callers(planted_smith, "_bareiss") == []
    # `used`, `A` and `A.write` are reached from `_private` or `unused`;
    # `unused` and `A.read` only from inside themselves
    planted = {"m": (
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused() + used()\n\n\n"
        "class A:\n"
        "    def read(self):\n        return self.read()\n\n"
        "    def write(self):\n        return 2\n\n"
        "    def __eq__(self, other):\n        return False\n\n\n"
        "def _private():\n    return A().write()\n"
    )}
    assert unreached_definitions(planted, []) == ["m.A.read", "m.unused"]
    assert unreached_definitions(planted, ["unused()\n", "x.read\n"]) == []
    assert unreached_definitions(planted, ["read()\n"]) == ["m.A.read", "m.unused"]
    trace = 'SPANNED = {"m": ("unused",)}\nCOUNTED = (("A", "read"),)\n'
    assert unreached_definitions(planted, [], (trace,)) == []


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
    assert "fractions" not in imported_modules(path.read_text()), f"{path.name} imports fractions"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_or_hashlib_import(path):
    """`ears.lattice.record` stands in for `dataclasses`, and the builtin sha256
    for `hashlib`, which only a fallback for a Python without it imports."""
    source = path.read_text()
    assert "dataclasses" not in imported_modules(source), f"{path.name} imports dataclasses"
    assert "hashlib" not in imported_modules(source, fallbacks=False), f"{path.name} imports hashlib"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "system.py"], ids=lambda p: p.name
)
def test_window_spelled_only_in_system(path):
    lines = window_lines(path.read_text())
    assert not lines, f"{path.name} spells a window outside system.Window at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_no_function_level_imports(path):
    lines = function_import_lines(path.read_text())
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


def test_cli_imports_layers_at_handler_top():
    layers = {p.stem for p in MODULES} - {"__init__", "cli"}
    lines = late_import_lines((SRC / "cli.py").read_text(), layers)
    assert not lines, f"cli.py imports other than leading layer imports at lines {lines}"


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


# the functions where the Smith form's choices matter: `solve_mod`'s
# certificates, `generates` on wide root pools, and `snf`, its dense view
SMITH_CALLERS = {"snf", "solve_mod", "generates"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_snf_solve_mod_and_generates_call_smith(path):
    """No square basis reaches the Smith form: `det`, `IntLattice.coords` and
    `inverse_unimodular` read `lattice._bareiss`."""
    extra = [name for name in callers(path.read_text(), "_smith") if name not in SMITH_CALLERS]
    assert not extra, f"{path.name} calls _smith from {extra}"


def test_library_is_what_commands_run():
    """Code that only tests call lives in `tests/`.  The traced benchmark
    wraps `ears` functions by the names in `bench/trace_calls.py`'s strings,
    so those names count as uses: `torus.bracket` stays for it alone."""
    library = {p.stem: p.read_text() for p in MODULES}
    users = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    trace = (ROOT / "bench" / "trace_calls.py").read_text()
    unreached = unreached_definitions(library, users, (trace,))
    assert not unreached, f"nothing in src/ears or bench/ reaches {unreached}"


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


def loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running statement.

    The statement runs from the repository root, and what it prints on stdout
    is kept out of the probe's output.
    """
    probe = (
        "import contextlib, io, sys\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    exec({statement!r})\n"
        "print(*sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, cwd=ROOT)
    return set(out.stdout.split())


def loaded_layers(statement: str) -> set[str]:
    """The `ears.*` modules a fresh interpreter holds after running statement."""
    return {m for m in loaded_modules(statement) if m.startswith("ears.")}


def command_modules(argv: list[str], code: int = 0) -> set[str]:
    """The modules loaded by `ears.cli.main(argv)`, which must return code."""
    return loaded_modules(
        f"import ears.cli\nif ears.cli.main({argv!r}) != {code}: sys.exit('exit code')"
    )


def test_import_surface():
    assert loaded_layers("import ears") == set()
    assert loaded_layers("import ears.lattice") == {"ears.lattice"}
    loaded = loaded_layers("from ears.characters import extend_ind_zero")
    assert "ears.characters" in loaded
    assert not loaded & {"ears.torus", "ears.cli"}, loaded


CORE = {"ears.cli", "ears.system", "ears.finite", "ears.lattice"}
CHARACTERS = CORE | {"ears.weyl", "ears.characters"}  # `characters` imports `weyl`
CEX = ["specs/counterexample_nu6.json", "specs/counterexample_nu6_char.json", "--window", "1"]
AFFINE_A1_BASE = '[{"finite":[1],"iso":[0]},{"finite":[-1],"iso":[1]}]'


@pytest.mark.parametrize("argv, code, layers", [
    pytest.param(["info", "specs/a3_nu2.json", "--window", "1"], 0, CORE, id="info"),
    pytest.param(["info", "specs/affine_a1.json", "--window", "1", "--refl-oracle"], 0,
                 CORE | {"ears.weyl"}, id="info-refl-oracle"),
    pytest.param(["weyl", "specs/affine_a1.json", "orbit", "--base", AFFINE_A1_BASE,
                  "--window", "1"], 0, CORE | {"ears.weyl"}, id="weyl-orbit"),
    pytest.param(["char-verify", *CEX], 0, CHARACTERS, id="char-verify"),
    pytest.param(["char-extend", *CEX], 1, CHARACTERS, id="char-extend"),
    pytest.param(["torus", "check-diagonal", "--ell", "2", "--nu", "1", "--modulus", "4",
                  "--hom", "1,2,3", "--window", "1"], 0, CHARACTERS | {"ears.torus"},
                 id="torus-check-diagonal"),
])
def test_command_import_surface(argv, code, layers):
    """A command loads `system` and the layers its handler imports, no more,
    and none of the standard library's costly start-up modules."""
    loaded = command_modules(argv, code)
    assert {m for m in loaded if m.startswith("ears.")} == layers
    assert not loaded & {"dataclasses", "inspect", "hashlib", "_hashlib"}, loaded
