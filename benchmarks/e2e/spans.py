"""In-memory span tracing for the traced benchmark round.

Spans are recorded around calls into each layer's public callables by
wrappers this module installs on instances, classes or modules, and
removes again on :meth:`Tracer.restore`.  The program itself carries no
tracing code.  A span is ``(tick, name, start_ns, end_ns, parent)``;
spans stay in compact arrays until the round ends.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Callable, Iterable, Sequence

__all__ = ["Tracer", "self_times", "per_tick_sums"]

_now = time.perf_counter_ns


class Tracer:
    """Records nested spans; ``tick`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.tick = -1
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.span_tick = array("q")
        self.span_name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        #: per-name sums of the ``count`` callbacks given to :meth:`patch`
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self._gc_start = 0

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code: int, start: int, nest: bool = True) -> int:
        idx = len(self.start)
        self.span_tick.append(self.tick)
        self.span_name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(0)
        if nest:
            self._stack.append(idx)
        return idx

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``fn`` recording a span ``name`` around every call.

        ``count(args, result)``, when given, is added to
        ``counts[name]`` after each call, so ratios are measured at the
        boundary where the work happens.
        """
        code = self._code(name)
        stack = self._stack
        end = self.end
        counts = self.counts
        counts.setdefault(name, 0)

        def traced(*args, **kwargs):
            idx = self._open(code, _now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Callable[[tuple, object], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` may be a module or class (the attribute is swapped and
        put back) or an instance (a wrapper is set on the instance and
        deleted again, uncovering the class's method).
        """
        own = vars(owner)
        if attr in own:
            original = own[attr]
            target = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, target, count))
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            self._undo.append(lambda: delattr(owner, attr))

    def trace_gc(self) -> None:
        """Record each collection as a span under whatever span is open."""
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            idx = self._open(self._code("gc"), self._gc_start, nest=False)
            self.end[idx] = _now()

    def begin(self, name: str) -> int:
        """Open a span the caller closes with :meth:`finish` (the tick)."""
        return self._open(self._code(name), _now())

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def restore(self) -> None:
        """Remove every wrapper and the GC callback, newest first."""
        while self._undo:
            self._undo.pop()()

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in the order spans were opened."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"tick":{self.span_tick[i]},'
                    f'"name":"{names[self.span_name[i]]}",'
                    f'"start_ns":{self.start[i]},"end_ns":{self.end[i]},'
                    f'"parent":{self.parent[i]}}}\n'
                )


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest without overlapping, so the children of a
    span cover disjoint parts of it and their durations can simply be
    subtracted.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def per_tick_sums(
    tracer: Tracer, own: Sequence[int], ticks: int, names: Iterable[str]
) -> list[int]:
    """Per-tick sum of self time (ns) over spans named in ``names``."""
    wanted = {tracer._codes[n] for n in names if n in tracer._codes}
    sums = [0] * ticks
    span_tick = tracer.span_tick
    span_name = tracer.span_name
    for i, t in enumerate(span_tick):
        if 0 <= t < ticks and span_name[i] in wanted:
            sums[t] += own[i]
    return sums
