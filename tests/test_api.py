"""The public surface of the package: every top-level function and class has
a caller in the program, and the package's __all__ names what it exports."""

import ast
from pathlib import Path

import preview_regret

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "preview_regret"

# public names kept without a caller in src/, scripts/ or bench/
ALLOWED = {
    # an input constructor, like interval; the tests build boxes with it
    "unit_box",
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
