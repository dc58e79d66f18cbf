"""Every name listed in an __all__ of cyclebound or its modules exists."""

import importlib
import pkgutil

import pytest

import cyclebound

MODULES = ["cyclebound"] + [f"cyclebound.{m.name}"
                            for m in pkgutil.iter_modules(cyclebound.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(name)
    assert [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)] == []
