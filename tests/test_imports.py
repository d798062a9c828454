"""Every name a package module imports is used in that module, no
package module imports another's private name, and every private
module-level function or class is read somewhere; `__all__` lists exactly
the names of the package's export table, and `__version__`; and no module
but abelian.py calls FgAbelian, so each section has one builder; no module of
the subgroup layer calls a collector operation but through the table
that keeps it on the presentation; and only whole_subgroup and
identity_hom list every generator, as G is read elsewhere through the
smaller subgroups.generating_set.

No linter ships with the package, so these tests parse each module with
ast.  An import is used when the module reads the name; `__init__.py` is
exempt: it loads its exports on first use.  A private definition
is read when some package module or test reads it, as a name or as an
attribute, outside its own body.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nilpc

PACKAGE = Path(nilpc.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


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


def private_imports(source: str):
    """(line, name) for each private name imported from a package module:
    a private helper belongs to its module, and a second module that needs
    it should get a public method or function instead."""
    return sorted(
        (node.lineno, alias.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_detects_a_private_import():
    src = ("from __future__ import annotations\n"
           "from . import presentation as pc\n"
           "from .scalars import Pairing, _offsets\n"
           "from typing import _SpecialForm\n")
    assert private_imports(src) == [(3, "_offsets")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def calls_of(source: str, name: str):
    """Lines that call `name`, bare or as an attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None)))


def test_detects_a_call():
    src = ("from .abelian import FgAbelian\n"
           "x = FgAbelian(p, a, b)\n"
           "y = ab.FgAbelian(p, a, b)\n"
           "z = _once(p, key, FgAbelian, a, b)\n")
    assert calls_of(src, "FgAbelian") == [2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "abelian.py"],
                         ids=lambda p: p.name)
def test_sections_are_built_only_by_abelian(path):
    # abelian.section keeps each section on its presentation; a bare
    # FgAbelian(...) elsewhere would build it again
    assert calls_of(path.read_text(encoding="utf-8"), "FgAbelian") == []


OPERATIONS = ("multiply", "power", "commutator", "conjugate", "inverse")
SUBGROUP_LAYER = ("subgroups", "abelian", "bilinear", "deformation", "series",
                  "refined")


def collector_calls(source: str):
    """(line, name) for each call of a collector operation of
    presentation.py: pc.<name>(...), or <name>(...) imported bare."""
    tree = ast.parse(source)
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "presentation"
            for alias in node.names if alias.name in OPERATIONS}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in OPERATIONS
                and getattr(f.value, "id", None) == "pc"):
            found.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and f.id in bare:
            found.append((node.lineno, f.id))
    return sorted(found)


def test_detects_a_collector_call():
    src = ("from . import presentation as pc\n"
           "from .presentation import power as pw, Element\n"
           "x = pc.commutator(p, a, b)\n"
           "y = pw(p, a, 2)\n"
           "z = sg._comm(p, a, b)\n"
           "w = ring.power(2)\n")
    assert collector_calls(src) == [(3, "commutator"), (4, "pw")]


@pytest.mark.parametrize("name", SUBGROUP_LAYER)
def test_subgroup_layer_collects_through_the_table(name):
    # the layer reads each group operation through the presentation's
    # table (subgroups._collected), so it is collected once per
    # presentation; a direct pc.* call would go around it
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert collector_calls(source) == []


def generator_enumerations(source: str):
    """(line, enclosing top-level function) for each comprehension that
    lists every generator: generator(...) for i in range(1, p.m + 1), with
    no filter."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
                    and len(node.generators) == 1
                    and not node.generators[0].ifs
                    and re.fullmatch(r"range\(1, \w+\.m \+ 1\)",
                                     ast.unparse(node.generators[0].iter))
                    and isinstance(node.elt, ast.Call)
                    and "generator" in (getattr(node.elt.func, "id", None),
                                        getattr(node.elt.func, "attr", None))):
                found.append((node.lineno, getattr(top, "name", None)))
    return found


def test_detects_an_enumeration_of_the_generators():
    src = ("def whole(p):\n"
           "    return tuple(pc.generator(p, i) for i in range(1, p.m + 1))\n"
           "def some(p, keep):\n"
           "    xs = [generator(p, i) for i in range(1, p.m + 1) if i]\n"
           "    ys = [f(pc.generator(p, i)) for i in range(1, p.m + 1)]\n"
           "    zs = [pc.generator(p, k + 1) for k in range(n)]\n"
           "    return [pc.generator(p, i) for i in range(1, p.m + 1)]\n"
           "gens = {generator(q, i) for i in range(1, q.m + 1)}\n")
    assert generator_enumerations(src) == [(2, "whole"), (7, "some"),
                                           (8, None)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_g_is_listed_by_its_generators_only_as_the_whole_group(path):
    # everywhere else G is read through subgroups.generating_set, which
    # generates it with fewer elements
    found = generator_enumerations(path.read_text(encoding="utf-8"))
    assert {name for _, name in found} <= {"whole_subgroup", "identity_hom"}


def _reads(tree):
    """Names the tree reads, bare or as an attribute, with multiplicity."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.append(node.attr)
    return out


def unread_privates(defining: str, reads: Counter):
    """Private module-level functions and classes of `defining` with no
    read in reads (counted over every reader, `defining` included) outside
    the definition's own body."""
    unread = []
    for node in ast.parse(defining).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            inside = _reads(node).count(node.name)
            if reads[node.name] <= inside:
                unread.append(node.name)
    return unread


def test_detects_an_unread_private():
    src = ("def _used():\n    return 1\n\n"
           "def _recursive(n):\n    return _recursive(n - 1)\n\n"
           "class _Unused:\n    pass\n\n"
           "x = _used()\n")
    reads = Counter(_reads(ast.parse(src)))
    assert unread_privates(src, reads) == ["_recursive", "_Unused"]


def test_every_private_definition_is_read():
    reads = Counter()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.rglob("*.py")):
        reads.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    unread = {p.name: unread_privates(p.read_text(encoding="utf-8"), reads)
              for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in unread.items() if v} == {}


def test_all_lists_exactly_the_reexports():
    """__all__ is the export table's names and __version__, and each name is
    the object of that name in the module the table gives for it."""
    names = [name for names in nilpc._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))  # no name under two modules
    assert sorted(nilpc.__all__) == sorted([*names, "__version__"])
    for name, module in nilpc._OWNER.items():
        assert getattr(nilpc, name) is getattr(
            importlib.import_module(f"nilpc.{module}"), name)


def test_the_table_names_every_submodule():
    assert sorted(nilpc._EXPORTS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_submodule_resolves_on_the_package(path):
    # in a fresh interpreter, where no import has bound it on the package yet
    code = (f"import sys, nilpc; m = nilpc.{path.stem}; "
            f"print(m is sys.modules['nilpc.{path.stem}'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         timeout=60)
    assert (out.returncode, out.stdout) == (0, b"True\n"), out.stderr


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilpc.no_such_name
    assert not hasattr(nilpc, "_private_name")


def test_dir_lists_the_exports():
    listing = dir(nilpc)
    assert "__all__" in listing
    assert set(nilpc.__all__) <= set(listing)
