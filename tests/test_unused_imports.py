"""Lint: no module-level import in ``src/repro`` or ``benchmarks/`` goes
unused.

A stdlib ``ast`` scan, no linter dependency.  A name counts as used when
it appears as a ``Name`` anywhere in the module — including inside a
string annotation — or in ``__all__``.  ``__init__.py`` files are
exempt: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(path
                 for top in (ROOT / "src" / "repro", ROOT / "benchmarks")
                 for path in top.rglob("*.py")
                 if path.name != "__init__.py")


def _names_in(text):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source):
    """``(line, name)`` for each module-level import never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("Fault") and __all__ entries.
            used |= _names_in(node.value)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = ("from typing import Dict, List\n"
              "import os\n"
              "def f() -> 'Dict[str, int]':\n"
              "    return {}\n")
    assert unused_imports(source) == [(1, "List"), (2, "os")]


def test_scanner_honours_all():
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_unused_module_level_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SCANNED
             for line, name in unused_imports(
                 path.read_text(encoding="utf-8"))]
    assert found == []
