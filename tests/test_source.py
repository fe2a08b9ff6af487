"""Static checks over the library's source."""

from __future__ import annotations

import ast
import pathlib

import pytest

import statmean

#: every module but the package's __init__, whose imports are its public names
MODULES = sorted(p for p in pathlib.Path(statmean.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
