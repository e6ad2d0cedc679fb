"""The public API: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import amplehk

MODULES = ["amplehk"] + [f"amplehk.{m.name}" for m in pkgutil.iter_modules(amplehk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
