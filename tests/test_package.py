"""Package surface: exported names exist, and the package exports exactly
what its modules export."""

import importlib
import pkgutil
import types

import pytest

import tensorisac

MODULES = sorted(info.name for info in pkgutil.iter_modules(tensorisac.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_exists(name):
    module = importlib.import_module(f"tensorisac.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_exactly_its_imports():
    imported = {
        name
        for name, value in vars(tensorisac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tensorisac.__all__) == sorted(imported)
    assert len(set(tensorisac.__all__)) == len(tensorisac.__all__)


def test_package_exports_come_from_module_exports():
    exported = set()
    for name in MODULES:
        exported |= set(getattr(importlib.import_module(f"tensorisac.{name}"), "__all__", []))
    assert sorted(tensorisac.__all__) == sorted(exported)
