"""Module layering of the package, read from its source with `ast`."""

import ast
import importlib
import os
import subprocess
import sys
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


def _attributes(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_channels_read_only_the_factors():
    # A channel is its per-factor spectra: no function of channels.py that
    # takes a ChannelDescriptor asks which ensemble it came from, and the
    # Haar draws go factor by factor without reading an ensemble's scope,
    # in the samplers and in the Monte Carlo channel alike.
    tree = ast.parse((PACKAGE / "channels.py").read_text())
    takes_descriptor = [
        func
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(arg.annotation, ast.Name) and arg.annotation.id == "ChannelDescriptor"
            for arg in func.args.args
        )
    ]
    assert len(takes_descriptor) >= 8
    assert [f.name for f in takes_descriptor if _attributes(f) & {"spec", "scope"}] == []
    (mc_channel,) = [f for f in tree.body if getattr(f, "name", None) == "mc_channel"]
    assert "scope" not in _attributes(mc_channel)
    assert "scope" not in _attributes(ast.parse((PACKAGE / "sampling.py").read_text()))


def test_transforms_are_drawn_in_one_place():
    # One draw rule: the records and the Monte Carlo channel draw an
    # ensemble's factors through sampling.sample_transform_arrays, never by
    # calling haar_draws themselves.
    for name in ("channels.py", "engine.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        assert "haar_draws" not in _attributes(tree) | _references(tree), name


def test_no_module_reads_to_matrix():
    # Every observable reaches the run and the predictors in closed form or
    # as its own dense matrix: to_matrix is defined in pauli.py, and no
    # module of the package reads it, by name, attribute or string.
    reads, defined = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "to_matrix":
                defined.append(path.name)
            elif "to_matrix" in (getattr(node, key, None) for key in ("attr", "id", "value")):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == [] and defined == ["pauli.py", "pauli.py"]


def test_each_module_imports_on_its_own():
    # Each public name has one import path, its module: the package root
    # imports nothing, so `import realshadows` loads neither numpy nor a
    # stage module, and every module imports in a fresh interpreter with no
    # other module of the package imported before it.
    root = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [n for n in ast.walk(root) if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    modules = [path.stem for path in MODULES if path.name != "__init__.py"]
    assert len(modules) == 9
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    check_root = (
        "import sys, realshadows; "
        "assert not [m for m in sys.modules if m == 'numpy' or m.startswith('realshadows.')]"
    )
    for code in [check_root] + [f"import realshadows.{module}" for module in modules]:
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (code, done.stderr)


def test_cli_reads_no_scope():
    # validate-channel reports the channel: its spectrum whenever it has one
    # factor, and the span{I, Y} note by the channel's zero rule.
    assert "scope" not in _attributes(ast.parse((PACKAGE / "cli.py").read_text()))


ROOT = PACKAGE.parent.parent
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def _references(statement: ast.AST) -> set[str]:
    """Names a statement reads, as a Name, an Attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # The top-level statements of src/, scripts/ and perfbench/ (the package's
    # __init__.py aside) and the names each reads.  A public function or class
    # of the package needs one statement other than its own definition that
    # reads it.
    statements = {
        path: [(node, _references(node)) for node in ast.parse(path.read_text()).body]
        for folder in CALLER_DIRS
        for path in sorted(folder.rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    }
    definitions = {
        node.name: node
        for path in MODULES
        if path.name != "__init__.py"
        for node, _ in statements[path]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = [
        name
        for name in sorted(definitions)
        if not any(
            name in names and node is not definitions[name]
            for body in statements.values()
            for node, names in body
        )
    ]
    assert unused == []


#: Traced names that the package no longer has; the benchmark's own repair
#: drops them from perfbench/tracer.py.
STALE_TRACED = {
    "sampling.sample_transforms",
    "sampling.sample_transform",
    "sampling.haar_unitary",
    "sampling.haar_orthogonal",
    "sampling.real_clifford_1q",
    "sampling.random_pure_state",
    "engine.simulate_measurement",
    "engine.per_shot_estimates",
    "engine.estimate",
    "engine._has_invisible_component",
    "variance.var_global_real",
    "variance.var_global_unitary",
    "variance.var_global_alpha",
    "variance.var_local_pauli_exact",
    "variance.bound_local",
    "variance.ratio_instance",
}


def test_traced_names_exist():
    # perfbench derives its per-layer metrics from spans of these functions;
    # a renamed or deleted one would leave its metric absent without an error.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    modules = {module: importlib.import_module(f"realshadows.{module}") for module in wrapped}
    gone = {
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not hasattr(modules[module], name)
    }
    assert sorted(gone - STALE_TRACED) == []
