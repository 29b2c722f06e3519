"""Every public top-level function and class in `src/bifree` has a caller
outside `tests/`: a reference elsewhere in the package, a reference in the
benchmark under `perfbench/`, or an import in the acceptance suite.  Every
private one is read elsewhere in the package.  Code that only tests reach
belongs in `tests/helpers.py` or nowhere, and every function and class there
is reached from a test module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bifree"
TESTS = ROOT / "tests"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(node: ast.AST) -> set[str]:
    """Names read as a bare name or as an attribute.  Imports do not count:
    a stale import would hide a dead name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _imported_names(node: ast.AST) -> set[str]:
    return {
        alias.name
        for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom)
        for alias in sub.names
    }


def _package_definitions():
    """(module, name, defining statement) of every top-level function and
    class in the package, and a predicate: is a name read by some other
    top-level statement of the package?"""
    definitions = []
    package_refs = []  # (top-level statement, names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            package_refs.append((stmt, _used_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))

    def read_elsewhere(name, own):
        return any(name in refs for stmt, refs in package_refs if stmt is not own)

    return definitions, read_elsewhere


def test_every_public_name_has_a_caller_outside_tests():
    definitions, read_elsewhere = _package_definitions()
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        outside |= _used_names(tree) | _imported_names(tree)
    outside |= _imported_names(_parse(TESTS / "test_acceptance.py"))
    unused = [
        f"{module}.{name}"
        for module, name, own in definitions
        if not name.startswith("_") and name not in outside and not read_elsewhere(name, own)
    ]
    assert not unused, f"no caller outside tests/: {unused}"


def test_every_private_name_is_read_in_the_package():
    # a private function or class that no other statement in src/bifree reads
    # is dead code left behind by a refactor, whatever a test still calls
    definitions, read_elsewhere = _package_definitions()
    unused = [
        f"{module}.{name}"
        for module, name, own in definitions
        if name.startswith("_") and not read_elsewhere(name, own)
    ]
    assert not unused, f"private names nothing in src/bifree reads: {unused}"


def test_every_helper_is_reached_from_a_test_module():
    # a name counts when a test module reads it, or a helper so reached does
    helpers = {
        stmt.name: stmt
        for stmt in _parse(TESTS / "helpers.py").body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    frontier = set().union(*(_used_names(_parse(path)) for path in sorted(TESTS.glob("test_*.py"))))
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in helpers and name not in reached:
            reached.add(name)
            frontier |= _used_names(helpers[name])
    unused = sorted(set(helpers) - reached)
    assert not unused, f"helpers no test module reaches: {unused}"


def test_no_module_imports_a_private_name_from_another():
    # a private name is one module's business: a second module that imports it
    # shares code that a dual-route pin would count as independent
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for sub in ast.walk(_parse(path)):
            if not isinstance(sub, ast.ImportFrom):
                continue
            if not (sub.level or (sub.module or "").split(".")[0] == "bifree"):
                continue
            leaks += [f"{path.stem} <- {a.name}" for a in sub.names if a.name.startswith("_")]
    assert not leaks, f"private names imported across modules: {leaks}"
