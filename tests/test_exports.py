"""Every exported name resolves.

Tools that wrap the package walk each module's ``__all__`` by name, so an
entry left behind by a deletion must fail here rather than there.  The
scripts under ``benchmarks/`` run outside this suite, so every name they
import from the package is checked here too.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import magnon_sense

MODULES = sorted(info.name for info in pkgutil.iter_modules(magnon_sense.__path__)
                 if info.name != "__main__")

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_imports():
    """(script, module, name) of every package import in the benchmark
    scripts; ``name`` is None for a plain ``import module``."""
    found = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names]
    return [(script, module, name) for script, module, name in found
            if module.split(".")[0] == "magnon_sense"]


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


@pytest.mark.parametrize(
    "script, module, name", benchmark_imports(),
    ids=lambda value: value if isinstance(value, str) else "import")
def test_benchmark_imports_resolve(script, module, name):
    source = importlib.import_module(module)
    if name is None or hasattr(source, name):
        return
    # ``from package import submodule`` imports the submodule
    assert importlib.util.find_spec(f"{module}.{name}") is not None, (
        f"benchmarks/{script} imports {name} from {module}, which has no such name")
