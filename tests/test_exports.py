"""Every exported name resolves: a deletion may not leave an __all__ entry
behind.  Every name a submodule exports is also used by the package itself,
unless it is listed below with the test that uses it."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twistalex

MODULES = ["twistalex"] + [f"twistalex.{m.name}" for m in pkgutil.iter_modules(twistalex.__path__)]

# Exported for the tests alone: each name and the test file that calls it.
USED_ONLY_BY_TESTS = {
    "hopf_extra_meridian_word": "test_acceptance.py",
    "random_hopf_representation": "test_acceptance.py",
    "random_a_odd_representation": "test_acceptance.py",
}


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


def test_every_submodule_export_has_a_use():
    package = Path(twistalex.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module_name}.{name}"
        for module_name in MODULES[1:]
        for name in getattr(importlib.import_module(module_name), "__all__", [])
        if name not in used and name not in USED_ONLY_BY_TESTS
    ]
    assert not unused, f"exported, but nothing in the package uses: {unused}"
    tests = Path(__file__).parent
    for name, test_file in USED_ONLY_BY_TESTS.items():
        assert name not in used, f"{name} has a use in the package; drop it from the list"
        assert name in (tests / test_file).read_text(encoding="utf-8"), (name, test_file)
