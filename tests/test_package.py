"""Package surface: exported names exist, the package exports exactly
what its modules export, and importing it does no avoidable work."""

import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures.process is loaded only by a sweep that opens a worker pool.
    src = os.path.dirname(os.path.dirname(tensorisac.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, tensorisac; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
