"""Checks on the package's source text itself."""

import ast
from pathlib import Path

import brauer_kl

MODULES = sorted(Path(brauer_kl.__file__).parent.glob("*.py"))


def test_no_invariant_is_an_assert():
    # ``python -O`` strips assert statements, so every check in the package
    # must raise an exception of its own
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 1
    assert found == []
