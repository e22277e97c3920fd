"""Module layering of the package, read from its source with `ast`."""

import ast
from pathlib import Path

import pytest

import realshadows

PACKAGE = Path(realshadows.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "realshadows"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "realshadows" for alias in node.names)
    return False


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_are_top_level(path):
    tree = ast.parse(path.read_text())
    local = [
        f"{path.name}:{node.lineno} in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if _is_package_import(node)
    ]
    assert local == []


def test_variance_does_not_import_engine():
    # engine imports variance for its predictions; the reverse would be a cycle
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "variance.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.module is None:
                imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "engine" for name in imported)
