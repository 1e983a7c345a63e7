"""Public API surface: exports resolve, docstrings exist, version sane."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.baselines",
    "repro.sampling",
    "repro.queries",
    "repro.metrics",
    "repro.datasets",
    "repro.experiments",
    "repro.utils",
]


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} missing docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_callables_documented(module_name):
    """Every public class/function exported by a subpackage has a docstring."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} missing docstring"


def test_exceptions_hierarchy():
    from repro.exceptions import (
        CalibrationError,
        EstimationError,
        GraphError,
        NotConnectedError,
        ProbabilityError,
        ReproError,
        SparsificationError,
    )

    assert issubclass(GraphError, ReproError)
    assert issubclass(ProbabilityError, GraphError)
    assert issubclass(NotConnectedError, GraphError)
    assert issubclass(CalibrationError, SparsificationError)
    assert issubclass(SparsificationError, ReproError)
    assert issubclass(EstimationError, ReproError)


def test_quickstart_docstring_example_runs():
    """The package docstring's example must stay true."""
    from repro import datasets, sparsify
    from repro.metrics import degree_discrepancy_mae

    g = datasets.twitter_like(n=200, seed=1)
    g_sparse = sparsify(g, alpha=0.3, variant="EMD^R-t", rng=1)
    assert degree_discrepancy_mae(g, g_sparse) < 0.5


def test_package_never_imports_the_test_oracles():
    """References live in ``tests/oracles``; production code must not
    reach for them (they are not installed with the package)."""
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("tests", "oracles"):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert len(list(root.rglob("*.py"))) > 50  # the walk saw the package
    assert not offenders, offenders
