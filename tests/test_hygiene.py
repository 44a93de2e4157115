"""Source hygiene scans: no assert statement in the package (invariants
raise exceptions), no unused import in the package or the tests, no
function or class that nothing in the package names, and no memo table
hand-rolled as an empty dict in an __init__ (functools.cache is the one
memo idiom)."""

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
    """Functions and classes of the package that no module of the package
    names; a re-export in __init__ is a name, a use in the tests is not."""
    package = _package()
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package}
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
        f"{_where(path, node)}: {node.name} is named nowhere in the package"
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))  # called by Python
        and node.name not in used
    ]


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and not node.keywords
    )


def memo_dict_hits():
    hits = []
    for path in _package():
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for node in ast.walk(init):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign) and node.value is not None:
                        targets = [node.target]
                    else:
                        continue
                    if not _is_empty_dict(node.value):
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr.startswith("_")
                        ):
                            hits.append(
                                f"{_where(path, node)}: {cls.name}.__init__ assigns "
                                f"an empty dict to self.{target.attr}"
                            )
    return hits


def test_no_assert_statements_in_the_package():
    assert assert_hits() == []


def test_no_unused_imports_in_the_package_and_the_tests():
    assert unused_import_hits() == []


def test_no_function_or_class_in_the_package_that_nothing_names():
    assert orphan_hits() == []


def test_no_memo_dict_in_any_init_of_the_package():
    assert memo_dict_hits() == []
