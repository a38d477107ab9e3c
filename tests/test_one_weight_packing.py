"""One module knows how path weights are packed: only ``qbg`` reads the
packed root weights ``weight_enc`` and the packing constants ``_BASE`` and
``_MAX_RANK``, and only ``qbg.weight_digits`` raises RankTooLarge, so the
graph and its distances carry no rank limit of the packing."""

import ast
from pathlib import Path

import pytest

import wqbg

MODULES = sorted(Path(wqbg.__file__).parent.glob("*.py"))
PACKING = {"weight_enc", "_BASE", "_MAX_RANK"}


def _reads(tree: ast.AST) -> set[str]:
    """The names read under `tree`, as names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _raises_rank_too_large(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Raise) and "RankTooLarge" in _reads(node)
               for node in ast.walk(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_qbg_knows_the_packing(path):
    tree = ast.parse(path.read_text())
    if path.name != "qbg.py":
        assert not PACKING & _reads(tree), path.name
        assert not _raises_rank_too_large(tree), path.name
        return
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    gates = [f.name for f in functions if _raises_rank_too_large(f)]
    assert gates == ["weight_digits"]
    # the constants are read by that function alone
    (gate,) = [f for f in functions if f.name == "weight_digits"]
    assert {"_BASE", "_MAX_RANK"} <= _reads(gate)
    for f in functions:
        if f is not gate:
            assert not {"_BASE", "_MAX_RANK"} & _reads(f), f.name
