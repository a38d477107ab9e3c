"""Every function, class, method and stored attribute the package defines is
referenced.

A definition counts as referenced when its name is read, as a name or as an
attribute, somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own
body, so recursion alone does not keep it.  Dunder methods are called by the
language, not by name, and are not checked.

An attribute the package stores (``obj.name = ...``) counts as referenced
when its name is read anywhere in those trees: as an attribute, as a name,
or as a string constant, which covers ``getattr`` and ``object.__setattr__``.
"""

import ast
from pathlib import Path

import wqbg

PACKAGE = Path(wqbg.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(
    p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
)
TREES = {p: ast.parse(p.read_text()) for p in SOURCES}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _dunder(node.name):
                yield node.name, (path, node.lineno, node.end_lineno)


def _stored_attributes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if not _dunder(node.attr):
                yield node.attr, node.lineno


def _reads(path: Path, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, (path, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, (path, node.lineno)


def _package_trees():
    return [(path, tree) for path, tree in TREES.items() if PACKAGE in path.parents]


def test_every_definition_is_referenced():
    reads: dict[str, list] = {}
    for path, tree in TREES.items():
        for name, where in _reads(path, tree):
            reads.setdefault(name, []).append(where)
    unreferenced = []
    for path, tree in _package_trees():
        for name, (dpath, first, last) in _definitions(path, tree):
            outside = [
                (p, line) for p, line in reads.get(name, ())
                if p != dpath or not first <= line <= last
            ]
            if not outside:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unreferenced, "never referenced: " + ", ".join(unreferenced)


def test_every_stored_attribute_is_read():
    read = {name for path, tree in TREES.items() for name, _ in _reads(path, tree)}
    read |= {
        node.value for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, tree in _package_trees()
        for name, line in _stored_attributes(tree)
        if name not in read
    ]
    assert not unread, "stored but never read: " + ", ".join(unread)
