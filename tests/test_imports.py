"""Every name a library module imports is read somewhere in that module.

Each ``src/framebundles/*.py`` is parsed with ``ast``.  The names bound by
its ``import`` statements, at module level or inside a function, must each be
read at least once: as a name, as the base of an attribute, or inside an
annotation (annotations are not evaluated, under ``from __future__ import
annotations``, but they are parsed like any other expression).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "framebundles"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .groups import perm_compose, perm_inverse as inv\n"
              "def f(x: 'int') -> int:\n"
              "    import math\n"
              "    return inv(x)\n")
    assert unused_imports(source) == [("os", 2), ("perm_compose", 3), ("math", 5)]
