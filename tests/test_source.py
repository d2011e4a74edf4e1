"""Checks on the package's source text itself."""

import ast
from collections import Counter
from pathlib import Path

import brauer_kl

MODULES = sorted(Path(brauer_kl.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def names_used(tree: ast.AST) -> Counter:
    """How often each name is used in ``tree`` by a ``Name``, an
    ``Attribute`` or an import alias."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def test_every_top_level_name_has_a_reader():
    # a function or class that only the tests reach belongs in
    # tests/verify_routes.py, where no command compiles it
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + BENCHMARK}
    uses = sum(map(names_used, trees.values()), Counter())
    orphans = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if uses[node.name] == names_used(node)[node.name]  # none outside its own body
    ]
    assert len(BENCHMARK) > 1
    assert orphans == []
