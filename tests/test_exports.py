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
import os
import pkgutil
import re
import subprocess
import sys
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


#: the oracle's public names, each imported from its own module only
ORACLE_NAMES = {
    "simulation": ("SimulationConfig", "SimulationTrace", "lyapunov_covariance",
                   "measure_gain", "simulate"),
    "verification": ("run_verification", "verification_parameters"),
}


def test_oracle_names_live_only_in_their_modules():
    # the package exports the analytic names alone: an oracle name there
    # would be a second list of the oracle's exports to keep in step
    for module, names in ORACLE_NAMES.items():
        source = importlib.import_module(f"magnon_sense.{module}")
        for name in names:
            assert name in source.__all__ and hasattr(source, name)
            assert name not in dir(magnon_sense)
            with pytest.raises(AttributeError, match=name):
                getattr(magnon_sense, name)


_ANALYTIC_RUN = """
import sys
import magnon_sense, magnon_sense.cli as cli
out = sys.argv[1]
assert "magnon_sense.simulation" not in sys.modules, "import"
assert cli.main(["budget", "--grid-points", "5", "--out", out + "/b.csv"]) == 0
assert "magnon_sense.simulation" not in sys.modules, "budget"
assert cli.main(["reproduce", "fig8", "--outdir", out]) == 0
assert "magnon_sense.simulation" not in sys.modules, "reproduce fig8"
import magnon_sense.simulation, magnon_sense.verification
assert "scipy" not in sys.modules, "oracle"
"""


def test_analytic_commands_never_import_scipy(tmp_path):
    # the analytic commands never load the oracle, whose import is most of
    # a short command's start-up, and no module of the package needs scipy
    src = str(Path(magnon_sense.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _ANALYTIC_RUN, str(tmp_path)],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


def test_no_module_imports_scipy():
    # scipy is a test dependency only: an import of it at any level, even
    # inside a function, would fail where the package alone is installed
    package = Path(magnon_sense.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert not found, found


def test_verification_imports_only_public_oracle_names():
    # verify reaches the oracle through its public entries, the ones the
    # tracer wraps and the tests patch, never through a private helper
    path = Path(magnon_sense.__file__).resolve().parent / "verification.py"
    private = [alias.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module == "simulation"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_benchmark_selftest_passes():
    # the benchmark's output checks, driven by real budget, sweep, reproduce
    # and simulate outputs, so a package change that breaks them fails here
    result = subprocess.run([sys.executable, str(BENCHMARKS / "selftest.py")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
