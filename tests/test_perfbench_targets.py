"""The benchmark's tracer wraps names where the package binds them; a name
that moves or is deleted would crash a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_bound_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    targets = worker.trace_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
