"""Every exported name resolves.

Tools that wrap the package walk each module's ``__all__`` by name, so an
entry left behind by a deletion must fail here rather than there.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import magnon_sense

MODULES = sorted(info.name for info in pkgutil.iter_modules(magnon_sense.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"magnon_sense.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"magnon_sense.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(magnon_sense.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"magnon_sense.{module}")
        assert hasattr(source, name), f"magnon_sense.{module} has no {name}"
        assert getattr(magnon_sense, name) is getattr(source, name)
