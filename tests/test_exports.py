import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import weakmeas

MODULES = sorted(m.name for m in pkgutil.iter_modules(weakmeas.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"weakmeas.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"weakmeas.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_benchmark_wrapped_names_exist():
    """Every name the traced benchmark run wraps resolves, so deleting one
    fails here before it crashes that run."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attribute_path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"weakmeas.{module_name}")
        for attribute in attribute_path.split("."):
            owner = getattr(owner, attribute, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute_path}")
    assert missing == []
