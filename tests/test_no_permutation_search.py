"""No module of the package searches all n! permutations: diagram maps come
from the backtracking ``coxeter.diagram_maps``.  ``bench/oracle.py`` is not
part of the package and keeps its own loops, independent of what it checks."""

import ast
from pathlib import Path

import pytest

import wqbg

MODULES = sorted(Path(wqbg.__file__).parent.glob("*.py"))


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", ""))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_permutations_call(path):
    assert "permutations" not in _called_names(ast.parse(path.read_text())), path.name
