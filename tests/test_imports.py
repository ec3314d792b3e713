"""Every module-level import under ``src/`` is used in its module, every
module-level function, class and assigned name under ``src/`` is read
somewhere in ``src/``, ``tests/`` or ``perfbench/``, every import
under ``src/`` is of the standard library or the package, no module under
``src/`` imports a private (``_``-prefixed) name from another, and every
file under ``src/`` parses with the grammar of the oldest Python that
pyproject.toml admits.

A package's ``__init__.py`` imports names to export them, so it is not
checked for unused imports.  A name counts as used when the module reads
it anywhere, annotations included; ``from __future__`` imports are
directives.  A definition counts as read when any of those files loads a
name or an attribute of that spelling; dunder names and the
``[project.scripts]`` entry points are read from outside."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def defined_names(source: str) -> dict[str, int]:
    """The module-level functions, classes and assigned names of
    ``source``, each with its line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """Every name and attribute that ``source`` loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def script_entries() -> set[tuple[str, str]]:
    """(path under ``src/``, name) of every ``[project.scripts]`` entry."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.partition("[project.scripts]")[2].partition("\n[")[0]
    return {(module.replace(".", "/") + ".py", name)
            for module, name in re.findall(r'"([\w.]+):(\w+)"', table)}


def test_every_module_level_name_is_read():
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            read |= read_names(path.read_text(encoding="utf-8"))
    exempt = script_entries()
    assert ("standpoint_owl/cli.py", "run") in exempt
    dead = [f"{path.relative_to(SRC)}: {name} (line {line})"
            for path in sorted(SRC.rglob("*.py"))
            for name, line in defined_names(path.read_text(encoding="utf-8")).items()
            if name not in read and not (name.startswith("__") and name.endswith("__"))
            and (path.relative_to(SRC).as_posix(), name) not in exempt]
    assert dead == []


def test_the_definition_check_itself():
    source = ("import os\ndef f():\n    return g\nclass C:\n    y = 1\n"
              "X: int = 2\na, (b, c) = os.sep, (1, 2)\n")
    assert defined_names(source) == {"f": 2, "C": 4, "X": 6, "a": 7, "b": 7, "c": 7}
    assert read_names(source) == {"g", "int", "os", "sep"}


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


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports, anywhere, from a
    module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == PACKAGE):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_name_is_imported_from_another_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, private", [
    ("from .model import Gci\nfrom __future__ import annotations\n", []),
    ("from .serializer import _xml, kb_pieces\n", ["_xml (line 1)"]),
    ("from ..labels import _tag as tag\n", ["_tag (line 1)"]),
    ("from standpoint_owl.model import _CHILDREN\n", ["_CHILDREN (line 1)"]),
    ("from os import _exit\n", []),
    ("def f():\n    from . import _private\n", ["_private (line 2)"])])
def test_the_private_import_check_itself(source, private):
    assert private_imports(source) == private


def oldest_python() -> tuple[int, int]:
    """The oldest Python that ``requires-python`` in pyproject.toml admits."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())


def test_the_version_check_itself():
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=(3, 10))
