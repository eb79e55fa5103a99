"""Every exported name resolves: a deletion may not leave an __all__ entry behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import twistalex

MODULES = ["twistalex"] + [f"twistalex.{m.name}" for m in pkgutil.iter_modules(twistalex.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)


def test_package_exports_resolve_to_objects():
    assert twistalex.__all__
    for name in twistalex.__all__:
        assert getattr(twistalex, name) is not None
