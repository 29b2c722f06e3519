"""Every top-level function and class in `src/bifree`, and every method,
classmethod, staticmethod and property of its classes, is reachable from a
root: a module-level statement of the package (the CLI's `__main__` block and
dispatch table among them) or a name the benchmark under `perfbench/` reads.
A definition is reached when a root or a reached definition reads its name,
so a cluster of names that only read one another is not reached.  A property
is reached like a method, when its name is read; two members of one name are
reached together.  Dunders belong to their class, because protocols call
them.  Code that only tests reach belongs in `tests/helpers.py` or nowhere,
and every function and class there is reached from a test module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bifree"
TESTS = ROOT / "tests"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(*nodes: ast.AST) -> set[str]:
    """Names read as a bare name or as an attribute.  Imports do not count:
    a stale import would hide a dead name."""
    names = set()
    for node in nodes:
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


def _is_member(stmt: ast.stmt) -> bool:
    """A method, classmethod, staticmethod or property: a def in a class body
    that is not a dunder."""
    if not isinstance(stmt, ast.FunctionDef):
        return False
    return not (stmt.name.startswith("__") and stmt.name.endswith("__"))


def _definitions(stmt: ast.stmt):
    """(name, qualified name, names read) of a top-level def or class and of
    each member of a class; a class reads what its body reads outside its
    members."""
    if isinstance(stmt, ast.FunctionDef):
        return [(stmt.name, stmt.name, _used_names(stmt))]
    members = [sub for sub in stmt.body if _is_member(sub)]
    rest = [sub for sub in stmt.body if not _is_member(sub)]
    own = _used_names(*stmt.bases, *stmt.keywords, *stmt.decorator_list, *rest)
    return [(stmt.name, stmt.name, own)] + [
        (sub.name, f"{stmt.name}.{sub.name}", _used_names(sub)) for sub in members
    ]


def _unreached() -> list[tuple[str, str]]:
    """(module, qualified name) of every top-level function and class in the
    package, and of every class member, that no root reaches."""
    definitions = {}  # name -> (module, qualified name, names read) of each definition
    frontier = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                for name, qualified, reads in _definitions(stmt):
                    definitions.setdefault(name, []).append((path.stem, qualified, reads))
            else:
                frontier |= _used_names(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        frontier |= _used_names(tree) | _imported_names(tree)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            for _, _, reads in definitions[name]:
                frontier |= reads
    return sorted(
        (module, qualified)
        for name, defs in definitions.items()
        if name not in reached
        for module, qualified, _ in defs
    )


def test_every_public_name_has_a_caller_outside_tests():
    unused = [
        f"{module}.{name}" for module, name in _unreached()
        if "." not in name and not name.startswith("_")
    ]
    assert not unused, f"no CLI path, library route or bench file reaches: {unused}"


def test_every_private_name_is_read_in_the_package():
    # a private function or class that no root reaches is dead code left
    # behind by a refactor, whatever a test still calls
    unused = [
        f"{module}.{name}" for module, name in _unreached()
        if "." not in name and name.startswith("_")
    ]
    assert not unused, f"private names no root in src/bifree reaches: {unused}"


def test_every_class_member_is_reached():
    # a method that only tests call is a test helper kept in a class
    unused = [f"{module}.{name}" for module, name in _unreached() if "." in name]
    assert not unused, f"class members no root reaches: {unused}"


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


def test_no_function_in_the_package_is_memoised():
    # a memoised function keeps results, and the inputs that key them, for
    # the life of the process; a call passes on the values it reuses instead
    banned = {"lru_cache", "cache", "cached_property"}
    found = [
        f"{path.stem}.{sub.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for sub in ast.walk(_parse(path))
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and any(_used_names(decorator) & banned for decorator in sub.decorator_list)
    ]
    assert not found, f"memoised in src/bifree: {found}"
