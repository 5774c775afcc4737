"""In-memory span recorder that traces calls into spinlogic from outside the package.

`SpanRecorder.patched` substitutes module attributes (for example
`chain.apply_bond_pulse`) with wrappers that record one span per call: a name,
a start, an end and the index of the enclosing span. Callers inside the package
look these functions up on their module at call time, so nested calls are
caught without editing the package. The originals are restored on exit.

Spans live in flat typed arrays (24 bytes each), so a traced sweep of 8000
trials keeps its 272 000 spans in under 7 MB. They are written out once, at
the end.
"""
from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, func):
        """Return a function that calls `func` inside a span called `name`."""
        name_id = self._intern(name)
        name_ids, starts, ends, parents, stack = (
            self._name_ids, self._starts, self._ends, self._parents, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace calls to `module.attr` for each (module, attr) pair while the block runs.

        The span name is "<last part of the module name>.<attr>".
        """
        saved = []
        try:
            for module, attr in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self._name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of calls).

        Self time is a span's duration minus the time its direct children cover.
        Spans nest without overlap in one thread, so that coverage is the sum of
        the children's durations.
        """
        a = self.arrays()
        durations = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        self_times = durations - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mine = a["name_id"] == name_id
            out[name] = (float(self_times[mine].sum()), int(mine.sum()))
        return out

    def calls_under(self, ancestor: str) -> dict[str, int]:
        """Number of spans of each name that have a span called `ancestor` above them."""
        a = self.arrays()
        counts = {name: 0 for name in self.names}
        if ancestor not in self.names:
            return counts
        target = self.names.index(ancestor)
        inside = np.zeros(len(a["start"]), dtype=bool)
        up = a["parent"].copy()
        while (up >= 0).any():
            live = up >= 0
            inside[live] |= a["name_id"][up[live]] == target
            up[live] = a["parent"][up[live]]
        for name_id, name in enumerate(self.names):
            counts[name] = int((inside & (a["name_id"] == name_id)).sum())
        return counts

    def write(self, path) -> None:
        """Save every span as arrays plus the name table (numpy .npz)."""
        np.savez(path, names=np.array(self.names), **self.arrays())
