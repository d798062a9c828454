"""Every name a package module imports is used in that module.

No linter ships with the package, so this test parses each module with
ast and looks for each imported name among the names the module reads.
`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import nilpc

MODULES = sorted(p for p in Path(nilpc.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import os\nfrom typing import List, Tuple\nx: List[int] = []\n"
    assert unused_imports(src) == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
