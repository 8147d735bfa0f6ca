"""Every name a ``labrr`` module exports in ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import labrr

_MODULES = ["labrr"] + [f"labrr.{info.name}" for info in pkgutil.iter_modules(labrr.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
