"""The public surface of the package: every top-level function and class has
a caller in the program, and the package's __all__ names what it exports."""

import ast
from pathlib import Path

import preview_regret

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "preview_regret"

# public names kept without a caller in src/, scripts/ or bench/
ALLOWED = {
    # the reader of certificate_to_json's output, for a certificate check
    # that loads a written certificate back
    "certificate_from_json",
}


def _public_definitions():
    """(module, name, node) of each top-level public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node


def _references():
    """(path, name, line) of every Name and Attribute node in the program.
    Imports and strings hold neither node, so they do not count."""
    for folder in ("src", "scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    yield path, node.id, node.lineno
                elif isinstance(node, ast.Attribute):
                    yield path, node.attr, node.lineno


def test_every_public_function_and_class_has_a_caller():
    refs = {}
    for path, name, line in _references():
        refs.setdefault(name, []).append((path, line))
    uncalled = []
    for path, name, node in _public_definitions():
        outside = [(p, line) for p, line in refs.get(name, [])
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside and name not in ALLOWED:
            uncalled.append(f"{path.name}:{name}")
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_all_names_resolve_once():
    names = preview_regret.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(preview_regret, n)]
    assert not missing
    scope = {}
    exec("from preview_regret import *", scope)
    assert set(names) <= set(scope)


def _tolerance_literal(node):
    """A float literal at most 1e-3 or at least 1e9 in modulus: a tolerance
    or a numeric cap."""
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and (0.0 < abs(node.value) <= 1e-3 or abs(node.value) >= 1e9))


def test_every_tolerance_is_named_once_in_the_budget():
    # the budget is solver.py's module-level assignments of such literals;
    # each has a comment right above it saying what it guarantees, and a
    # reader elsewhere in the package
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    solver = PACKAGE / "solver.py"
    budget = [stmt for stmt in trees[solver].body
              if isinstance(stmt, ast.Assign)
              and any(map(_tolerance_literal, ast.walk(stmt.value)))]
    inside = {id(node) for stmt in budget for node in ast.walk(stmt)}
    stray = [f"{path.name}:{node.lineno} {node.value!r}"
             for path, tree in trees.items() for node in ast.walk(tree)
             if _tolerance_literal(node) and id(node) not in inside]
    assert not stray, f"tolerance literals outside the budget: {stray}"

    names = [target.id for stmt in budget for target in stmt.targets]
    assert len(names) == len(set(names))
    lines = solver.read_text().splitlines()
    bare = [name for name, stmt in zip(names, budget)
            if not lines[stmt.lineno - 2].lstrip().startswith("#")]
    assert not bare, f"budget names without their guarantee: {bare}"
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [name for name in names if name not in read]
    assert not unread, f"budget names nothing reads: {unread}"
