"""Every function, class, method and stored attribute the package defines is
referenced, and every function, class and method is read in the package
itself unless an allowlist names its reader outside it.

A definition counts as referenced when its name is read, as a name or as an
attribute, somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own
body, so recursion alone does not keep it.  Dunder methods are called by the
language, not by name, and are not checked.

Definitions are matched to reads by name only, not by class: a method that
nothing calls passes whenever a function or method of the same name
elsewhere is read.

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


def _unread(readers) -> dict[str, list[str]]:
    """The package's definitions that no tree of `readers` reads outside the
    definition's own body, as name -> places defined."""
    reads: dict[str, list] = {}
    for path, tree in readers:
        for name, where in _reads(path, tree):
            reads.setdefault(name, []).append(where)
    unread: dict[str, list[str]] = {}
    for path, tree in _package_trees():
        for name, (dpath, first, last) in _definitions(path, tree):
            outside = [
                (p, line) for p, line in reads.get(name, ())
                if p != dpath or not first <= line <= last
            ]
            if not outside:
                unread.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{first}")
    return unread


def test_every_definition_is_referenced():
    unreferenced = [f"{w} {name}" for name, where in _unread(TREES.items()).items() for w in where]
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


# Definitions that nothing in src/ reads, each kept for a named reader outside
# the package.  Names that ``__init__`` exports are kept for the library's
# users and need no entry.
KEPT_FOR = {
    "distances_from": "bench: bench/tracer.py wraps it by name",
    "reachable_weight_table": "bench: bench/tracer.py wraps it by name",
    "decompose_minimal_coset": "bench: bench/tracer.py wraps it by name",
    "check_witness_table_row": "acceptance criteria: tests/test_acceptance.py",
    "gln_classes_bruteforce": "acceptance criteria: tests/test_acceptance.py",
    "reflect_root": "test reference: the root permutations are checked against it",
    "out_edges": "test reference: the plain-Python searches read a vertex's edges by it",
}


def _exported() -> set[str]:
    tree = TREES[PACKAGE / "__init__.py"]
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_definition_is_read_in_the_package():
    unread = _unread(_package_trees())
    missing = [f"{w} {name}" for name, where in unread.items()
               if name not in KEPT_FOR and name not in _exported() for w in where]
    assert not missing, "read only outside src/: " + ", ".join(missing)
    # an entry whose name src/ now reads, or no longer defines, goes
    assert set(KEPT_FOR) <= set(unread), set(KEPT_FOR) - set(unread)
