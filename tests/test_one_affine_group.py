"""No module of the package builds an affine Weyl group of its own: every
caller reaches the group's one through ``affine.affine_group``, which keeps
it, with its cover tables and its last admissible set, on the group."""

import ast
from pathlib import Path

import pytest

import wqbg

MODULES = sorted(Path(wqbg.__file__).parent.glob("*.py"))


def _constructor_calls(tree: ast.AST) -> set[int]:
    """Line numbers of the calls ``AffineWeylGroup(...)`` under `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name == "AffineWeylGroup":
                lines.add(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_affine_groups_come_from_the_accessor(path):
    tree = ast.parse(path.read_text())
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "affine_group":
            allowed |= _constructor_calls(node)
    assert _constructor_calls(tree) <= allowed, path.name
    if path.name == "affine.py":
        assert len(allowed) == 1
