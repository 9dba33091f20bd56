import importlib
import pkgutil

import pytest

import bicoord

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bicoord.__path__))


def test_submodules_found():
    assert "solvers" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"bicoord.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"bicoord.{name}.__all__ names missing objects: {missing}"
