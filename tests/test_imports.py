"""Code hygiene: every name a package module imports is used in it,
every top-level function or class is referenced from elsewhere in the
package, every function reads each of its parameters, every dataclass
field is read, every f-string has a placeholder, and a solve imports no
scipy module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlfeti

MODULES = sorted(Path(nlfeti.__file__).parent.glob("*.py"))


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads.  A dotted import with
    no ``as`` counts as read only where its whole chain is: ``import
    a.b`` by ``a.b`` or ``a.b.c``, not by ``a.c``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("import os\nimport sys\nfrom math import pi, tau\n"
              "import scipy.linalg\nimport scipy.sparse\nimport a.b.c\n"
              "print(sys, pi, scipy.sparse.eye(2), a.b.c.d)\n")
    assert _unused_imports(source) == ["line 1: os", "line 4: scipy.linalg",
                                       "line 3: tau"]


def _fstrings_without_placeholders(source: str) -> list[str]:
    """f-strings with no replacement field; the format spec of a field,
    itself an f-string node, does not count."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue)
                        for v in node.values)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_fstrings_have_placeholders(path):
    assert _fstrings_without_placeholders(path.read_text()) == []


def test_checker_flags_an_fstring_without_placeholders():
    source = ('a = f"plain"\nb = f"{a:.3g} and {a!r:>{10}}"\n'
              'c = ("x" f"y")\nd = "no f"\ne = f"{a}" "tail"\n')
    assert _fstrings_without_placeholders(source) == ["line 1", "line 3"]


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, dunder names excepted, that no
    other top-level statement of any of ``sources`` names; a function
    calling only itself counts as unreferenced."""
    defined: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.append((module, node.name, node))

    def names(stmt: ast.stmt) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
        return out

    named = [(stmt, names(stmt)) for stmt in statements]
    return [f"{module}: {name}" for module, name, node in defined
            if not any(name in used
                       for stmt, used in named if stmt is not node)]


def test_package_references_every_private_definition():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unreferenced(sources) == []


def test_checker_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                "class _Imported:\n    pass\n\n\n"
                "def public_dead():\n    pass\n\n\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "from .a import _Imported, _used\n\n\n"
                "print(_used, _Imported)\n",
    }
    assert _unreferenced(sources) == ["a.py: _dead", "a.py: _recursive",
                                      "a.py: public_dead"]


def _unread_parameters(source: str) -> list[str]:
    """Parameters of functions and lambdas that the body never names;
    ``self``, ``cls`` and ``_``-prefixed names excepted.  A name in a
    nested function or lambda counts as read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + [a.vararg]
                  + a.kwonlyargs + [a.kwarg] if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        out += [f"line {node.lineno}: {name}: {p}" for p in params
                if p not in read and p not in ("self", "cls")
                and not p.startswith("_")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_functions_read_every_parameter(path):
    assert _unread_parameters(path.read_text()) == []


def test_checker_flags_an_unread_parameter():
    source = ("class A:\n"
              "    def f(self, a, b, _c, *args, d=1, **kw):\n"
              "        return a + kw['x']\n"
              "    @classmethod\n"
              "    def g(cls, e):\n"
              "        return lambda x, y: e + x\n"
              "def h(n):\n"
              "    def inner():\n"
              "        return n\n"
              "    return inner\n")
    assert _unread_parameters(source) == [
        "line 2: f: b", "line 2: f: args", "line 2: f: d",
        "line 6: lambda: y"]


def _unread_fields(sources: dict[str, str], exempt=()) -> list[str]:
    """Fields of the dataclasses in ``sources``, those of the classes in
    ``exempt`` excepted, that no attribute load in any of ``sources``
    reads; an assignment to the attribute is not a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if (not isinstance(cls, ast.ClassDef) or cls.name in exempt
                    or not any(_dotted(getattr(d, "func", d))
                               in ("dataclass", "dataclasses.dataclass")
                               for d in cls.decorator_list)):
                continue
            out += [f"{module}: {cls.name}.{stmt.target.id}"
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read]
    return out


def test_package_reads_every_dataclass_field():
    """A field that nothing reads is state that nothing needs; the
    result record ``FetiResult`` is handed to the caller whole."""
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unread_fields(sources, exempt={"FetiResult"}) == []


def test_checker_flags_an_unread_field():
    sources = {
        "a.py": "import dataclasses\nfrom dataclasses import dataclass, field"
                "\n\n\n@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
                "    z: list = field(default_factory=list)\n\n\n"
                "@dataclasses.dataclass(frozen=True)\nclass B:\n    w: int\n"
                "\n\nclass C:\n    v: int\n\n\n"
                "@dataclass\nclass Result:\n    r: int\n",
        "b.py": "def f(a, b):\n    a.y = 1\n    return a.x + len(b.z)\n",
    }
    assert _unread_fields(sources, exempt={"Result"}) == ["a.py: A.y",
                                                          "a.py: B.w"]


def test_a_solve_imports_neither_spatial_nor_io():
    """A FETI solve needs neither ``scipy.spatial`` (the subdomain
    extension reads distances off the owned rectangles) nor ``scipy.io``
    (only ``write_matrix_market`` imports it), so a fresh process that
    imports the package and solves has loaded neither."""
    code = (
        "import sys\n"
        "import nlfeti\n"
        "from nlfeti.harness import ExperimentConfig, run_single\n"
        "run_single(ExperimentConfig(family='peridynamic', n=8, delta=0.25,"
        " k1=2, k2=2))\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.spatial', 'scipy.io'))))\n")
    src = str(Path(nlfeti.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
