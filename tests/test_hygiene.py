"""Source hygiene scans: no assert statement in the package (invariants
raise exceptions), no unused import in the package or the tests, and no
function or class in the package that nothing names."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _package():
    return sorted((ROOT / "src" / "spinmcg").rglob("*.py"))


def _tests():
    return sorted((ROOT / "tests").rglob("*.py"))


def _where(path, node):
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def assert_hits():
    return [
        f"{_where(path, node)}: assert statement"
        for path in _package()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]


def unused_import_hits():
    hits = []
    for path in sorted([*_package(), *_tests()]):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue  # kept on purpose, as conftest.py's import probe
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        hits.append(f"{_where(path, node)}: unused import {name}")
    return hits


def orphan_hits():
    package = _package()
    trees = {path: ast.parse(path.read_text(), str(path)) for path in [*package, *_tests()]}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name.split(".")[-1])
    return [
        f"{_where(path, node)}: {node.name} is named nowhere in the package or the tests"
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))  # called by Python
        and node.name not in used
    ]


def test_no_assert_statements_in_the_package():
    assert assert_hits() == []


def test_no_unused_imports_in_the_package_and_the_tests():
    assert unused_import_hits() == []


def test_no_function_or_class_in_the_package_that_nothing_names():
    assert orphan_hits() == []
