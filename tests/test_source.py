"""Static checks over the library's source."""

from __future__ import annotations

import ast
import graphlib
import inspect
import pathlib

import numpy as np
import pytest

import statmean
from statmean import ddouble

PACKAGE = sorted(pathlib.Path(statmean.__file__).parent.glob("*.py"))

#: every module but the package's __init__, whose imports are its public names
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_named(path):
    """No import at module level that the module never names; a stand-in
    for a linter's unused-import check."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in named] == []


def _package_imports(node):
    """(module, name, alias) for each name an import statement takes from the
    package, alias the name it binds: `from .a import x` gives ("a", "x",
    "x"), `from . import a` or `import statmean.a as a` gives ("a", None,
    "a"), and a name of the package's own, such as `from . import
    __version__`, gives ("__init__", "__version__", "__version__")."""
    modules = {p.stem for p in PACKAGE}
    if isinstance(node, ast.Import):
        return [(alias.name.split(".")[1], None, alias.asname or alias.name)
                for alias in node.names if alias.name.startswith("statmean.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        module = node.module
    elif node.module.split(".")[0] == "statmean":
        module = node.module.partition(".")[2] or None
    else:
        return []
    found = []
    for alias in node.names:
        if module is not None:
            found.append((module, alias.name, alias.asname or alias.name))
        elif alias.name in modules:
            found.append((alias.name, None, alias.asname or alias.name))
        else:
            found.append(("__init__", alias.name, alias.asname or alias.name))
    return found


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_package_imports_sit_at_module_level():
    """Every import of a statmean module is a statement of the module body, so
    the import graph is what the tops of the files say."""
    deferred = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        deferred += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if _package_imports(node) and node not in tree.body]
    assert deferred == []


def test_package_imports_are_acyclic():
    """The modules import one another in layers, wherever the import stands:
    errors, ddouble -> quadrature -> spectra -> covariance -> toeplitz ->
    estimators, opuc, deterministic, simulate -> efficiency -> cli."""
    graph = {}
    for path in PACKAGE:
        graph[path.stem] = {module for node in ast.walk(ast.parse(path.read_text()))
                            for module, _, _ in _package_imports(node)}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {' -> '.join(reversed(err.args[1]))}")


def test_no_private_name_crosses_modules():
    """No module imports an underscore name from another statmean module or
    reads one off a statmean module it imported."""
    crossings = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        imports = [(node, *found) for node in ast.walk(tree)
                   for found in _package_imports(node)]
        crossings += [f"{path.name}:{node.lineno} {module}.{name}"
                      for node, module, name, _ in imports if name and _private(name)]
        bound = {alias for _, _, name, alias in imports if name is None}
        crossings += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in bound
                      and _private(node.attr)]
    assert crossings == []


def test_only_the_command_line_catches_a_stopped_pass():
    """A Levinson pass that stops short is a value, which its readers raise:
    `NearSingularError` keeps only a message and an order, and no module but
    `cli` catches it to read the pass back out of it."""
    parameters = list(inspect.signature(statmean.NearSingularError.__init__).parameters)
    assert parameters == ["self", "message", "order"]
    catchers = [f"{path.name}:{node.lineno}" for path in MODULES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "NearSingularError" in ast.unparse(node.type)]
    assert [c for c in catchers if not c.startswith("cli.py:")] == []
    assert catchers


#: the model variants' class names
VARIANTS = {cls.__name__ for cls in statmean.SpectralModel.__subclasses__()}


def test_no_module_tests_a_model_against_a_variant():
    """Behaviour that depends on the variant lives on the variant: no module
    asks `isinstance(model, SomeVariant)`, only of the base class."""
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                found += [f"{path.name}:{node.lineno} {ast.unparse(c)}" for c in classes
                          if ast.unparse(c).rpartition(".")[2] in VARIANTS]
    assert found == []


@pytest.mark.parametrize("name", ["spectra.py", "covariance.py"])
def test_closed_forms_read_only_what_numpy_and_ddouble_both_have(name):
    """A closed form is written once over its arithmetic `ar`, the module
    numpy or ddouble itself: every name the module reads off `ar` exists on
    both, so no record stands between them."""
    tree = ast.parse((pathlib.Path(statmean.__file__).parent / name).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ar"}
    assert read
    assert sorted(a for a in read if not (hasattr(np, a) and hasattr(ddouble, a))) == []
