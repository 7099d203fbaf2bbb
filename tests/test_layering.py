"""The package's modules form one layered import graph.

Each module may import only modules below it in LAYERS, and every import
sits at module level, so importing a module never pulls in anything above
it, neither at load time nor later from inside a function.  Outside the
package, the runtime imports the standard library and numpy, nothing else.
The source checks are backed by importing each module alone in a fresh
interpreter, which also catches what a package `__init__` loads.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import cfedit

LAYERS = (
    ("errors", "rng"),
    ("grids",),
    ("data",),
    ("network",),
    ("relaxed",),
    ("search",),
    ("render",),
    ("metrics",),
    ("cli",),
    ("__init__",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
PACKAGE_DIR = os.path.dirname(os.path.abspath(cfedit.__file__))
MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def parse(module):
    with open(os.path.join(PACKAGE_DIR, f"{module}.py")) as fh:
        return ast.parse(fh.read(), filename=f"{module}.py")


def imported_modules(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return parts[1:2] if parts[0] == "cfedit" else []
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]
    return [
        alias.name.split(".")[1]
        for alias in node.names
        if alias.name.startswith("cfedit.")
    ]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    upward = []
    for node in ast.walk(parse(module)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in imported_modules(node):
                if RANK[target] >= RANK[module]:
                    upward.append(f"line {node.lineno}: {target}")
    assert not upward, f"{module} imports modules at or above its layer: {upward}"


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    nested = [
        inner.lineno
        for node in ast.walk(parse(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"{module} imports inside a function at lines {nested}"


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_the_standard_library_numpy_and_the_package(module):
    outside = []
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "cfedit"):
                outside.append(f"line {node.lineno}: {name}")
    assert not outside, f"{module} imports outside the standard library and numpy: {outside}"


def loaded_modules(module):
    """The names in `sys.modules` after a fresh interpreter imports
    `cfedit.<module>` (the package itself for `__init__`) and nothing else."""
    target = "cfedit" if module == "__init__" else f"cfedit.{module}"
    path = os.pathsep.join(filter(None, (os.path.dirname(PACKAGE_DIR), os.environ.get("PYTHONPATH"))))
    code = f"import json, sys, {target}; print(json.dumps([{target}.__file__, sorted(sys.modules)]))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )
    where, loaded = json.loads(out.stdout)
    assert os.path.dirname(os.path.abspath(where)) == PACKAGE_DIR
    return loaded


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_nothing_above_it(module):
    above = [
        name for name in loaded_modules(module)
        if name.startswith("cfedit.") and RANK[name.split(".")[1]] > RANK[module]
    ]
    assert not above, f"importing {module} loads modules above its layer: {above}"


def test_errors_loads_no_numpy():
    assert "numpy" not in loaded_modules("errors")
