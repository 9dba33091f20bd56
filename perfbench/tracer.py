"""Spans recorded from outside the program, around calls into its layers.

A Tracer replaces public names with timing wrappers where the calling code
looks them up (module globals such as `bicoord.solvers.project`, and the
methods of the objective classes), and restores them on exit. Each call
becomes one span: a name, a start and an end time, and the span that was
open when it began. Spans stay in flat arrays in memory and are written out
once, at the end of the run; self times are derived afterwards.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.weight = array("d")  # matrix bytes an objective call runs over
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int, weight: float) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.weight.append(weight)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(_clock())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._id(name), 0.0)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn, weight=None):
        """fn timed as a span; weight(args) gives the span's byte weight."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._begin(nid, weight(args) if weight else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, span name, weight) targets."""
        saved = []
        try:
            for owner, attr, name, weight in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, weight))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "weight": np.frombuffer(self.weight, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Derived views of a finished trace: durations, self times, roots."""

    def __init__(self, names: list[str], name, parent, start, end, weight):
        self.names = list(names)
        self.name, self.parent, self.weight = name, parent, weight
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.zeros(len(start))
        np.add.at(covered, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered
        # a parent always opens before its children, so one pass in index
        # order resolves every span's outermost ancestor
        root = list(range(len(start)))
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                root[i] = root[p]
        self.root = np.array(root, dtype=np.int64)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        return cls(tracer.names, **tracer.arrays())

    def of(self, *names: str) -> np.ndarray:
        """Mask of the spans called by any of names."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)
