"""Every function, class and method the package defines is referenced.

A definition counts as referenced when its name is read, as a name or as an
attribute, somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own
body, so recursion alone does not keep it.  Dunder methods are called by the
language, not by name, and are not checked.
"""

import ast
from pathlib import Path

import wqbg

PACKAGE = Path(wqbg.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(
    p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
)


def _definitions(path: Path, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, (path, node.lineno, node.end_lineno)


def _reads(path: Path, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, (path, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, (path, node.lineno)


def test_every_definition_is_referenced():
    trees = {p: ast.parse(p.read_text()) for p in SOURCES}
    reads: dict[str, list] = {}
    for path, tree in trees.items():
        for name, where in _reads(path, tree):
            reads.setdefault(name, []).append(where)
    unreferenced = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for name, (dpath, first, last) in _definitions(path, tree):
            outside = [
                (p, line) for p, line in reads.get(name, ())
                if p != dpath or not first <= line <= last
            ]
            if not outside:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unreferenced, "never referenced: " + ", ".join(unreferenced)
