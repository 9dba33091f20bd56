import ast
import importlib
from pathlib import Path
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


def test_outcome_digest_imports_resolve():
    # tools/outcome_digests.py compares checkouts through the package's
    # public names; one the package drops would break that comparison
    tool = Path(__file__).resolve().parent.parent / "tools" / "outcome_digests.py"
    names = [a.name for node in ast.parse(tool.read_text()).body
             if isinstance(node, ast.ImportFrom) and node.module == "bicoord"
             for a in node.names]
    assert names
    assert [n for n in names if not hasattr(bicoord, n)] == []


def test_reexported_names_are_in_their_submodule_all():
    # every `from .module import name` in the package root names a member
    # of that module's __all__
    tree = ast.parse(Path(bicoord.__file__).read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"bicoord.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in module.__all__]
    assert not missing, f"re-exported but not in __all__: {missing}"
