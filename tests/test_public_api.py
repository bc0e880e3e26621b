"""Public-API stability: every exported name resolves and is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.network",
    "repro.sat",
    "repro.solvers",
    "repro.sfq",
    "repro.core",
    "repro.circuits",
    "repro.io",
    "repro.pipeline",
    "repro.pipeline.passes",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    mod = importlib.import_module(package)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name, None)
        if obj is None:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{package}.{name}")
    assert not undocumented, undocumented


def test_lazy_top_level_attributes():
    import repro

    assert callable(repro.run_many)
    assert repro.Pipeline.standard().names()
    assert "adder" in repro.benchmark_registry
    with pytest.raises(AttributeError):
        repro.nonexistent_attribute


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_cli_entry_point_configured():
    import tomllib

    with open("pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["scripts"]["repro-flow"] == "repro.cli:main"
