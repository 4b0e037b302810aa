"""The public surface: every exported name is one the package itself uses.

A name counts as used when a module other than ``__init__`` reads it from
module scope in code or imports it, so strings and docstrings do not
count.  Scopes are resolved by ``symtable``: a name that a function binds
itself, as a parameter or a local, is not a use of a module-level name it
hides.  Imports count because ``cli`` reaches its two checks through
``globals()``.  The exports that only the tests use are listed with the
reason each is kept.  A module-level function or class that is not
exported must be used the same way, where an attribute read
(``module.name``) counts too.  Every cross-reference in a docstring names
something that exists, so a docstring cannot outlive what it names.
"""

import ast
import importlib
import re
import symtable
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


def _sources():
    """(file name, source text) of each module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")


def _module_reads(table) -> set:
    """The names read in table's scope, or a scope nested in it, that resolve to module scope."""
    module = table.get_type() == "module"
    reads = {
        sym.get_name()
        for sym in table.get_symbols()
        if sym.is_referenced() and (module or sym.is_global())
    }
    for child in table.get_children():
        reads |= _module_reads(child)
    return reads


def _names_in_use(attributes=False) -> set:
    """The module-level names the modules other than ``__init__`` read in code or
    import, and with ``attributes`` the attribute names they read."""
    used = set()
    for name, text in _sources():
        if name == "__init__.py":
            continue
        used |= _module_reads(symtable.symtable(text, name, "exec"))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.alias):
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
        for name, text in _sources()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []


ROLE = re.compile(r":(func|meth|class|attr|data|mod):`([^`]+)`")


def _docstrings():
    """(module name, qualified name of the enclosing class or None, docstring) of each docstring."""
    for name, text in _sources():
        module = "margcouple" if name == "__init__.py" else f"margcouple.{name[:-3]}"
        todo = [(ast.parse(text), None)]
        while todo:
            node, cls = todo.pop()
            if isinstance(node, ast.ClassDef):  # a class encloses its own docstring
                cls = f"{cls}.{node.name}" if cls else node.name
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield module, cls, doc
            todo.extend((child, cls) for child in ast.iter_child_nodes(node))


def _found(scope, dotted: str) -> bool:
    for part in dotted.split("."):
        scope = getattr(scope, part, _found)
        if scope is _found:
            return False
    return True


def _resolves(module: str, cls, role: str, target: str) -> bool:
    """A target resolves in its module (``..module.name`` from the package), else in the
    enclosing class; a ``:mod:`` target is an importable module (``.name`` in the package)."""
    if role == "mod":
        try:
            importlib.import_module(f"margcouple{target}" if target.startswith(".") else target)
        except ImportError:
            return False
        return True
    if target.startswith(".."):
        module, _, target = target[2:].partition(".")
        return _found(importlib.import_module(f"margcouple.{module}"), target)
    scope = importlib.import_module(module)
    return _found(scope, target) or (cls is not None and _found(scope, f"{cls}.{target}"))


def test_every_docstring_cross_reference_resolves():
    refs = [
        (module, cls, role, target)
        for module, cls, doc in _docstrings()
        for role, target in ROLE.findall(doc)
    ]
    assert len(refs) > 50  # the pattern still matches the docstrings' roles
    assert [ref for ref in refs if not _resolves(*ref)] == []
