"""Every module-level import under ``src/`` is used in its module, and
every import under ``src/`` is of the standard library or the package.

A package's ``__init__.py`` imports names to export them, so it is not
checked for unused imports.  A name counts as used when the module reads
it anywhere, annotations included; ``from __future__`` imports are
directives."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
PACKAGE = "standpoint_owl"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from __future__ import annotations\nfrom a import B\nx: B = 1\n", []),
    ("from a import f\ndef g():\n    return f()\n", []),
    ("def g():\n    import os\n", [])])
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


def foreign_imports(source: str) -> list[str]:
    """The modules imported anywhere in ``source`` whose top-level package
    is neither the package itself nor in the standard library, which
    includes ``__future__``: the project declares no dependency."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.partition(".")[0] not in {PACKAGE, *sys.stdlib_module_names}]
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_standard_library_is_imported(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, foreign", [
    ("import os.path\nfrom __future__ import annotations\n", []),
    ("from . import model\nfrom .model import Gci\n", []),
    ("from standpoint_owl.model import Gci\n", []),
    ("import hypothesis\n", ["hypothesis (line 1)"]),
    ("def f():\n    from lxml import etree\n", ["lxml (line 2)"])])
def test_the_dependency_check_itself(source, foreign):
    assert foreign_imports(source) == foreign
