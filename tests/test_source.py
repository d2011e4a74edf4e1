"""Checks on the package's source text itself."""

import ast
import re
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


def parsed_with_readers() -> tuple[dict, Counter]:
    """The syntax trees of the package and the benchmark, and how often each
    name is used across them.  A string constant in the benchmark counts as
    a use: its tracer wraps methods such as ``apply_move`` by name."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + BENCHMARK}
    uses = sum(map(names_used, trees.values()), Counter())
    uses.update(
        node.value
        for path in BENCHMARK
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    return trees, uses


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a function's or a class's,
    or the targets of an assignment, dunders (``__version__``) exempt."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            name.id
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            if not dunder(name.id)
        ]
    return []


def test_every_top_level_name_has_a_reader():
    # a function, class or constant that only the tests reach belongs in
    # tests/verify_routes.py, where no command compiles it
    trees, uses = parsed_with_readers()
    orphans = [
        f"{path.name}:{name}"
        for path in MODULES
        for node in trees[path].body
        for name in defined_names(node)
        if uses[name] == names_used(node)[name]  # none outside its own statement
    ]
    assert len(BENCHMARK) > 1
    assert orphans == []


def test_every_method_has_a_reader():
    # the same for the methods and properties of src classes; a dunder
    # method is read by the syntax that invokes it
    trees, uses = parsed_with_readers()
    orphans = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in MODULES
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not dunder(node.name)
        if uses[node.name] == names_used(node)[node.name]
    ]
    assert orphans == []


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree: ast.AST) -> list[str]:
    """Each underscore name that ``tree`` imports from a package module
    (``from .x import _y``) or reads off one it imports (``x._y``)."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "brauer_kl"):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{node.lineno}: from {node.module or '.'} import {alias.name}")
                if node.module in (None, "brauer_kl"):  # ``from . import x`` binds module x
                    modules.add(alias.asname or alias.name)
    found += [
        f"{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        if node.value.id in modules and private(node.attr)
    ]
    return found


def test_no_module_reads_a_private_name_of_another():
    # a decision two modules share is read through a public name
    found = {
        path.name: reads
        for path in MODULES
        if (reads := private_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert private_reads(ast.parse("from . import weights\nweights._row\nfrom .kl import _V")) == [
        "3: from kl import _V",
        "2: weights._row",
    ]
    assert found == {}


def leading_text(node: ast.AST) -> str:
    """The text a string or f-string expression starts with ("" for any other)."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_cli_prints_an_error_line_from_one_statement():
    # every refusal reaches the user through the one handler in cli.main
    path = Path(brauer_kl.__file__).parent / "cli.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        if any(leading_text(arg).startswith("error:") for arg in node.args)
    ]
    assert len(found) == 1


def test_every_declared_exit_code_is_a_refusal_code():
    # 0 is success, 1 a failed self-check or a traceback, 4 an oracle mismatch
    declared = {
        f"{path.name}:{node.lineno}": ast.literal_eval(node.value)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if getattr(target, "id", getattr(target, "attr", None)) == "exit_code"
    }
    assert len(declared) >= 7
    assert {site: code for site, code in declared.items() if code not in (2, 3, 5, 6)} == {}


def test_every_declared_exit_code_is_in_the_readme_table():
    # each refusal class is one row of the README's exit-code table:
    # | `code` | `module.Class` | raised for |
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {
        name: int(code) for code, name in re.findall(r"^\| `(\d+)` \| `([\w.]+)` \|", readme, re.M)
    }
    declared = {
        f"{path.stem}.{cls.name}": ast.literal_eval(node.value)
        for path in MODULES
        for cls in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.Assign)
        if any(getattr(target, "id", None) == "exit_code" for target in node.targets)
    }
    assert len(declared) >= 7
    assert {name: table.get(name) for name in declared} == declared


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports (``from .x import y`` or
    ``from . import x``), at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "brauer_kl"):
            if node.module in (None, "brauer_kl"):  # ``from . import x`` imports module x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rpartition(".")[2])
    return found


def test_the_oracle_side_imports_no_kl_side_module():
    # the diagram oracle referees the KL route, so it shares nothing with it
    # but the cell labels: oracle, specht and linalg read only each other and
    # combinat
    oracle_side = {"oracle", "specht", "linalg"}
    sample = "from . import kl\ndef f():\n    from .params import x\n"
    assert package_imports(ast.parse(sample)) == {"kl", "params"}
    found = {
        path.stem: package_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in MODULES
        if path.stem in oracle_side
    }
    assert set(found) == oracle_side
    assert {name: mods - oracle_side - {"combinat"} for name, mods in found.items()} == {
        name: set() for name in oracle_side
    }


def module_level_imports(tree: ast.Module) -> set[str]:
    """The package modules that the module body of ``tree`` imports, not
    counting an import inside a function or class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    top = [node for node in tree.body if not isinstance(node, defs)]
    return set().union(*map(package_imports, top))


def test_pipeline_imports_kl_only_inside_a_function():
    # every command that peels imports pipeline; the engine loads only for
    # a family with a block of two or more weights
    sample = "from .weights import x\ndef f():\n    from .kl import y\n"
    assert module_level_imports(ast.parse(sample)) == {"weights"}
    path = Path(brauer_kl.__file__).parent / "pipeline.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "kl" in package_imports(tree)
    assert "kl" not in module_level_imports(tree)


def element_reads(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that call an ``_element`` method, outside the
    class ``CanonicalBasisEngine`` that defines it."""
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "CanonicalBasisEngine"
        for node in ast.walk(cls)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        if isinstance(node.func, ast.Attribute) and node.func.attr == "_element"
    ]


def test_kl_reads_elements_for_tables_at_one_site():
    # a regular block is the wall fold with no wall: every tilting table is
    # built by one loop over canonical-basis elements
    sample = "class CanonicalBasisEngine:\n    def f(self):\n        self._element(0)\n"
    sample += "engine._element(1)\n"
    assert element_reads(ast.parse(sample)) == [4]
    path = Path(brauer_kl.__file__).parent / "kl.py"
    assert len(element_reads(ast.parse(path.read_text(), filename=str(path)))) == 1


def peeling_functions(tree: ast.Module) -> list[str]:
    """The top-level functions of ``tree`` that subtract in place from an
    item (``x[i] -= ...``), the step of a peel."""
    return [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        if any(
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.target, ast.Subscript)
            for node in ast.walk(fn)
        )
    ]


def test_pipeline_peels_in_one_function_with_no_dominance_test():
    # each tilting column is unitriangular in its block's member order, so
    # one pass down that order peels it: no dominance scan, one routine
    sample = "def f(r):\n    r[0] -= 1\ndef g(r):\n    r -= 1\n    r[0] += 1\n"
    assert peeling_functions(ast.parse(sample)) == ["f"]
    path = Path(brauer_kl.__file__).parent / "pipeline.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    used = names_used(tree)
    assert (used["dominance_less"], used["dominance_leq"]) == (0, 0)
    assert used["dominance_sort_key"] > 0
    assert peeling_functions(tree) == ["_peel"]
