"""Every name the package defines has a caller outside the tests.

A top-level function, class or constant, or a non-dunder method, counts as
referenced when it appears as a name or attribute anywhere in the package
outside its own definition, or as a name, attribute or string in the
benchmark (which wraps functions by their names). Package re-exports in
``__init__`` are imports, not references.

An attribute named like a method of ``list``, ``dict``, ``set``, ``str`` or
``tuple`` is no reference, in the package and the benchmark alike:
``seen.add(label)`` calls a set's method, not a package method ``add``. A
name may be exempt from that rule only in ``BUILTIN_EXEMPT``, with a reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steanesim"
# Kept without a caller: the parser of display names (for location input
# on the command line), and the pinned reference values the tests read.
ALLOWED = {"ledger_from_names"}
ALLOWED_MODULES = {"pinned.py"}
# Builtin method names whose attribute uses still count, each with its reason.
BUILTIN_EXEMPT: dict[str, str] = {}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


BUILTIN_METHODS = {
    name for kind in (list, dict, set, str, tuple) for name in dir(kind) if not is_dunder(name)
} - BUILTIN_EXEMPT.keys()


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class and
    assigned constant, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr not in BUILTIN_METHODS:
        return node.attr
    return None


def unreferenced(trees: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """``module:line name`` of each definition in ``trees`` that no module
    references outside the definition itself and that is not in ``outside``."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = referenced_name(node)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        if module in ALLOWED_MODULES:
            continue
        for name, first, last in definitions(tree):
            if is_dunder(name) or name in ALLOWED or name in outside:
                continue
            if not any(m != module or not first <= line <= last for m, line in uses.get(name, ())):
                out.append(f"{module}:{first} {name}")
    return out


def benchmark_references() -> set[str]:
    """Names, attributes and strings in the benchmark's sources."""
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = referenced_name(node)
            if name is None and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            if name is not None:
                outside.add(name)
    return outside


def test_no_unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(trees, benchmark_references()) == []


def test_a_builtin_method_call_references_no_package_method():
    source = (
        "class Table:\n"
        "    def add(self, item):\n"
        "        return item\n"
        "def labels(gates):\n"
        "    seen = set()\n"
        "    for g in gates:\n"
        "        seen.add(g)\n"
        "    return seen, Table\n"
        "labels([])\n"
    )
    assert unreferenced({"inline.py": ast.parse(source)}, set()) == ["inline.py:2 add"]
