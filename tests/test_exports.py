"""Every exported name resolves.

Tools that wrap the package walk each module's ``__all__`` by name, so an
entry left behind by a deletion must fail here rather than there.  The
scripts under ``benchmarks/`` run outside this suite, so every name they
import from the package is checked here too, and so is every
``layer.function`` span name the traced benchmark reads: the tracer wraps
only the names in ``__all__``, and a span it never opens reads as 0.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import magnon_sense

MODULES = sorted(info.name for info in pkgutil.iter_modules(magnon_sense.__path__)
                 if info.name != "__main__")

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: span names the traced benchmark still reads although the package has
#: deleted the function; they read 0 until the benchmark is re-anchored
#: (ROADMAP, "Smaller items", stale benchmark text)
KNOWN_STALE_SPANS = ("spectra.reservoir_occupations", "simulation.estimate_psd",
                     "simulation.trace_covariances")

_SPAN = re.compile(r"\w+\.\w+")


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


def _strings(nodes):
    return [node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def benchmark_spans():
    """``layer.function`` span names the traced benchmark reads by name.

    They are the first arguments of ``t(...)`` and the keys of
    ``tracer.hooks.update`` in ``run.py``, and the anchors in
    ``tracer.verification_phases``.
    """
    names = []
    for node in ast.walk(ast.parse((BENCHMARKS / "run.py").read_text())):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "t":
            names += _strings(node.args[:1])
        elif (isinstance(func, ast.Attribute) and func.attr == "update"
              and isinstance(func.value, ast.Attribute) and func.value.attr == "hooks"
              and isinstance(node.args[0], ast.Dict)):
            names += _strings(node.args[0].keys)
    tracer = ast.parse((BENCHMARKS / "tracer.py").read_text())
    phases = next(node for node in tracer.body if isinstance(node, ast.FunctionDef)
                  and node.name == "verification_phases")
    names += _strings(ast.walk(phases))
    return sorted({name for name in names
                   if _SPAN.fullmatch(name) and name.split(".")[0] in MODULES})


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


@pytest.mark.parametrize(
    "span", [span for span in benchmark_spans() if span not in KNOWN_STALE_SPANS])
def test_benchmark_spans_are_public(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"magnon_sense.{layer}")
    assert name in module.__all__, (
        f"the traced benchmark reads span {span!r}, but {name} is not in "
        f"magnon_sense.{layer}.__all__, so the span always reads 0")


def test_known_stale_spans_are_still_stale():
    # an entry the benchmark no longer reads, or that is public again,
    # belongs off the list
    spans = benchmark_spans()
    assert "transfer.response_grid" in spans
    for span in KNOWN_STALE_SPANS:
        layer, name = span.split(".")
        assert span in spans
        assert name not in importlib.import_module(f"magnon_sense.{layer}").__all__
