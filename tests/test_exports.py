"""Every ``__all__`` entry of the package and of each module names an attribute, once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import simplexgrad

MODULES = ["simplexgrad"] + [f"simplexgrad.{m.name}" for m in pkgutil.iter_modules(simplexgrad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(e for e in exported if exported.count(e) > 1)
    assert [e for e in exported if not hasattr(module, e)] == []
