"""Span recording for the traced benchmark run.

Functions are wrapped at the module attribute each caller looks them up
under (potvit modules import by name, so wrapping only the defining module
would miss calls made through the importing module). Every call records one
span: name, start, end, parent span and request id. Spans stay in memory in
flat arrays and are written out once, when the run ends. A span's self time
is its duration minus the time covered by its direct child spans.

There is one span stack, so the traced code must run on one thread: the
benchmark pins POTVIT_THREADS to 1, which keeps mpsearch's scoring pool off.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.counters: dict[str, float] = {}
        self.request_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, fn, name: str, count=None):
        """fn with a span per call; count(tracer, args, kwargs, result) runs
        after the span closes, so counting is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, count or None) tuples."""
        for module, attr, name, count in targets:
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.wrap(orig, name, count))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------------------
    # reduction

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def _own_times(self):
        ids, start, end, parent = self._arrays()
        dur = end - start
        has = parent >= 0
        own = dur - np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return ids, dur, own, parent

    def stats(self) -> dict[str, dict[str, float]]:
        """{span name: {calls, wall_s, self_s}} over all recorded spans."""
        ids, dur, own, _ = self._own_times()
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        wall = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "wall_s": float(wall[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def _nested_in(self, ancestors, ids, parent) -> np.ndarray:
        """Which spans have, at any depth above them, a span named in `ancestors`."""
        wanted = [self._ids[a] for a in ancestors if a in self._ids]
        target = np.isin(ids, wanted)
        inside = np.zeros(len(ids), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            inside[live] |= target[up[live]]
            up[live] = parent[up[live]]
        return inside

    def stats_under(self, name: str, ancestors, exclude=()) -> dict[str, float]:
        """{calls, self_s} of the `name` spans nested, at any depth, in a span
        named in `ancestors` and in none named in `exclude`."""
        if name not in self._ids:
            return {"calls": 0, "self_s": 0.0}
        ids, _, own, parent = self._own_times()
        sel = (ids == self._ids[name]) & self._nested_in(ancestors, ids, parent)
        if exclude:
            sel &= ~self._nested_in(exclude, ids, parent)
        return {"calls": int(np.count_nonzero(sel)), "self_s": float(own[sel].sum())}

    def write(self, path) -> None:
        ids, start, end, parent = self._arrays()
        request = np.array(self.request, dtype=np.int64)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, start=start, end=end,
            parent=parent, request=request,
        )
