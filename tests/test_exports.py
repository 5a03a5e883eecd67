"""Every exported name exists: each module's __all__ and the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import psdl

MODULES = sorted(m.name for m in pkgutil.iter_modules(psdl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"psdl.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"psdl.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(psdl.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"psdl.{module}")
        assert hasattr(source, name), f"psdl.{module} has no {name}"
        assert hasattr(psdl, name), f"psdl does not export {name}"
