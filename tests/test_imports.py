"""Import hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

import nlfeti

MODULES = sorted(Path(nlfeti.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: tau"]
