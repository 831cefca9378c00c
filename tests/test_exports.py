import importlib
import pkgutil

import pytest

import weakmeas

MODULES = sorted(m.name for m in pkgutil.iter_modules(weakmeas.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"weakmeas.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"weakmeas.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
