"""The public API surface: everything in ``__all__`` exists and imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.dmi",
    "repro.buffer",
    "repro.fpga",
    "repro.memory",
    "repro.processor",
    "repro.firmware",
    "repro.storage",
    "repro.accel",
    "repro.workloads",
    "repro.core",
    "repro.campaign",
    "repro.telemetry",
    "repro.telemetry.attribution",
    "repro.report",
    "repro.faults",
    "repro.service",
    "repro.tune",
    "repro.hybrid",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    exports = list(package.__all__)
    assert len(exports) == len(set(exports)), f"{package_name}: duplicate exports"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        obj = getattr(package, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
