"""Spans and counts recorded around calls into the program's layers.

The benchmark never edits the program.  It records a span (name, start,
end, parent) around a call into a layer by replacing one *attribute of
one object*: a bound method on an instance, or a function on a module.
It never replaces a method on a class, because both engines pick their
kernels by reading class attributes (``type(policy).rates_array is not
Policy.rates_array`` and the like); a wrapper installed on a class would
silently switch kernels and measure a different program.  The traced
run checks that outputs and engine counters match an untraced run bit
for bit.

Spans live in flat arrays until the run ends; :meth:`Tracer.summary`
then folds them into per-name totals, self times and call counts.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

__all__ = ["Tracer", "instrument", "mean_summary", "patched"]


class Tracer:
    """In-memory span recorder with re-entrancy suppression.

    A wrapped call made while a span of the same name is innermost (a
    policy's ``rates_array`` calling its own ``rates``, say) runs through
    without a span of its own, so a name's total never counts time twice.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []
        self._open_ids: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self._names)
            self._names.append(name)
        return sid

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, sid: int) -> int:
        idx = len(self._name)
        self._name.append(sid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._open_ids.append(sid)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_ids.pop()

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span named ``name`` (one per outermost call)."""
        sid = self._id(name)
        open_ids = self._open_ids

        def traced(*args, **kwargs):
            if open_ids and open_ids[-1] == sid:
                return fn(*args, **kwargs)
            idx = self._open(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def summary(self) -> dict[str, dict]:
        """``{name: {"total_s", "self_s", "calls"}}`` over all closed spans."""
        n = len(self._name)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            row = out.setdefault(
                self._names[self._name[i]],
                {"total_s": 0.0, "self_s": 0.0, "calls": 0},
            )
            dur = self._end[i] - self._start[i]
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["calls"] += 1
        return out


def instrument(tracer: Tracer, obj, attrs, name: str) -> None:
    """Wrap the bound methods ``attrs`` of the instance ``obj``.

    Only attributes the object's class defines are wrapped.  The wrapper
    is stored on the instance, so the class and every other instance
    keep their own methods.
    """
    cls = type(obj)
    for attr in attrs:
        if getattr(cls, attr, None) is None:
            continue
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))


@contextlib.contextmanager
def patched(module, name: str, replacement):
    """Replace the module attribute ``name`` for the ``with`` body."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def mean_summary(summaries) -> dict[str, dict]:
    """Per-name span totals averaged over several :meth:`Tracer.summary`."""
    summaries = list(summaries)
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                acc[key] += value / len(summaries)
    return out
