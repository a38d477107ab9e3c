"""Every name a module of the package imports is used in it."""

import ast
from pathlib import Path

import pytest

import wqbg

MODULES = sorted(p for p in Path(wqbg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # names inside strings, such as the annotation "qbg_mod.QuantumBruhatGraph"
            try:
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    unused = sorted(set(imported) - _used_names(tree))
    assert not unused, f"{path.name} never uses {', '.join(unused)}"
