"""The public surface: every exported name is one the package itself uses.

A name counts as used when a module other than ``__init__`` names it in
code or imports it, read from the modules' syntax trees, so strings and
docstrings do not count.  Imports count because ``cli`` reaches its two
checks through ``globals()``.  The exports that only the tests use are
listed with the reason each is kept.  A module-level function or class
that is not exported must be used the same way, where an attribute read
(``module.name``) counts too.
"""

import ast
from pathlib import Path

import margcouple

SRC = Path(margcouple.__file__).resolve().parent

# tests-only exports: each an independent second route or a builder the tests compare against
TESTS_ONLY = {
    "canonicalize": "builds the canonical interval sets the tests' strategies draw",
    "intervalsets_disjoint": "pointwise oracle for the slot-mask disjointness of intervals",
    "boxsets_disjoint": "pointwise oracle for refine_grid's disjointness test of targets",
    "oracle_couple": "greedy coupling, independent of tensor, for the remainder coupling",
    "tensor_via_barycenter": "second route to tensor, through averaged embeddings",
}


def _trees():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names_in_use(attributes=False) -> set:
    """The names the modules other than ``__init__`` use in code or import, and
    with ``attributes`` the attribute names they read."""
    used = set()
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
            elif attributes and isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_by_the_package_or_listed_as_tests_only():
    assert sorted(set(margcouple.__all__) - _names_in_use() - TESTS_ONLY.keys()) == []


def test_the_tests_only_list_names_unused_exports():
    assert TESTS_ONLY.keys() <= set(margcouple.__all__)
    assert sorted(TESTS_ONLY.keys() & _names_in_use()) == []


def test_every_unexported_definition_is_used_by_the_package():
    used = _names_in_use(attributes=True) | set(margcouple.__all__)
    unused = [
        f"{name}: {node.name}"
        for name, tree in _trees()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []
