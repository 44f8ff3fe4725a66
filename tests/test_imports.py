"""Every name a library module imports or defines is read somewhere.

Each ``src/framebundles/*.py`` is parsed with ``ast``.  The names bound by
its ``import`` statements, at module level or inside a function, must each be
read at least once: as a name, as the base of an attribute, or inside an
annotation (annotations are not evaluated, under ``from __future__ import
annotations``, but they are parsed like any other expression).

Every top-level ``def`` or ``class`` must be read in ``src/`` outside its own
body, as a name or as an attribute, or be named as a handler by
``cli.GRAMMAR`` or, as a suite, by ``suites.SUITES``; the few that only
tests call are listed with their reason.
"""

import ast
from pathlib import Path

import pytest

from framebundles.cli import GRAMMAR
from framebundles.suites import SUITES

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


# The top-level definitions that no code in src/ reads, each with the law it
# serves; no other function gives its value.  A definition that gains a caller
# in src/ leaves this table, and one that loses its last caller fails the test.
TEST_ONLY = {
    "bundles.bundle_isomorphic": "retraction law of the planned bundle-law suite",
    "frame_tables.associated_map": "retraction law of the planned bundle-law suite",
    "frame_tables.reconstruct_semitorsor": "retraction law of the planned bundle-law suite",
    "frames.wreath_inv": "reference law of the wreath product for every frame-table kernel",
    "frames.wreath_mul": "reference law of the wreath product for every frame-table kernel",
    "gset_aut.autq_component": "Aut(q) is G^n for any frame",
    "gset_aut.autq_reconstruct": "Aut(q) is G^n for any frame",
    "u1.adjoint": "acceptance criterion 10 (c)",
    "u1.all_words": "acceptance criterion 10 (a) and (b)",
    "u1.frame_transport": "circle transport law of the planned bundle-law suite",
    "u1.u1_canonical_frame": "acceptance criterion 10 (b)",
    "u1.u1_winding_bundle": "acceptance criterion 10 fixtures",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict, handlers=()) -> list:
    """Each ``module.name`` that a top-level def or class of ``sources`` (module
    stem -> source) defines and that nothing reads outside its own body.

    ``name`` is read where its module loads it as a bare name, where another
    module imports it with ``from .module import name``, and as the attribute
    ``module.name``; a local variable of another module that happens to share
    the name does not count.  A name in ``handlers`` counts as read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None:
                defined.append((module, owner))
            here = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    here.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    here.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    here.update((node.module, alias.name) for alias in node.names)
            here.discard((module, owner))
            read |= here
    return sorted(f"{module}.{name}" for module, name in defined
                  if (module, name) not in read and name not in handlers)


def test_every_definition_is_read_or_listed_as_test_only():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    handlers = {spec.rpartition(".")[2] for _, spec, _ in GRAMMAR.values()}
    handlers |= set(SUITES.values())  # run_suite calls the function named like its module
    assert unreferenced(sources, handlers) == sorted(TEST_ONLY)


def test_an_unread_definition_is_reported():
    # _dead reads only itself; b's local variable of the same name is not a read
    sources = {"a": ("def used(n):\n"
                     "    return used(n - 1) if n else _helper()\n"
                     "def _helper():\n"
                     "    return Kind.ONE\n"
                     "class Kind:\n"
                     "    ONE = 1\n"
                     "def imported():\n"
                     "    pass\n"
                     "def _dead():\n"
                     "    return _dead()\n"),
               "b": ("import a\n"
                     "from .a import imported\n"
                     "print(a.used(2), imported())\n"
                     "def cmd_run(args):\n"
                     "    _dead = args\n"
                     "    return _dead\n")}
    assert unreferenced(sources) == ["a._dead", "b.cmd_run"]
    assert unreferenced(sources, {"cmd_run"}) == ["a._dead"]
