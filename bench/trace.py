"""In-memory span tracer the benchmark installs around the program.

Nothing under ``src/`` knows about this module.  Spans come from three
places, all outside the program's own files:

* **staged** spans the workload code opens around its direct calls
  (``with tracer.span("sim.experiment.build_world")``);
* **wrappers** installed on public callables at the name their caller
  resolves (:func:`install`) and removed again on exit;
* the program's own ``profile=True`` hooks, bridged by
  :class:`TracingProfiler`: every ``Profiler.add(phase, seconds)`` becomes
  a *retro* span that ends now, started ``seconds`` ago, and adopts the
  spans that closed inside that window as its children.

A span is ``(name, start, end, parent, thread)``; self time is the span
minus the part its direct children cover.  Spans stay in memory until
the workload asks for :meth:`Tracer.totals` or :meth:`Tracer.chrome`.
"""

from __future__ import annotations

import functools
import importlib
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import profiling

__all__ = ["Tracer", "TracingProfiler", "WrapTargetError", "install",
           "NameTotals"]


class WrapTargetError(RuntimeError):
    """A callable the benchmark wraps no longer exists under that name.

    Raised instead of skipping the wrapper: a renamed or removed public
    callable would otherwise silently drop a layer from the trace and its
    per-layer metrics would read zero."""


class _Buffer:
    """One thread's spans plus its stack of open ones."""

    __slots__ = ("tid", "name", "start", "end", "self_time", "parent",
                 "stack")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.self_time: List[float] = []
        self.parent: List[int] = []
        # Open spans, innermost last: [index, closed direct children].
        # The sentinel frame collects top-level spans so retro spans can
        # adopt those too.
        self.stack: List[List[Any]] = [[-1, []]]


class NameTotals:
    """Count, inclusive seconds and self seconds of one span name."""

    __slots__ = ("count", "seconds", "self_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            ident = self._ids.get(name)
            if ident is None:
                ident = self._ids[name] = len(self._names)
                self._names.append(name)
            return ident

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
        return buf

    # ------------------------------------------------------------------
    def begin(self, name_id: int) -> None:
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(name_id)
        buf.end.append(0.0)
        buf.self_time.append(0.0)
        buf.parent.append(buf.stack[-1][0])
        buf.stack.append([index, []])
        buf.start.append(perf_counter())

    def finish(self, rename: Optional[int] = None) -> None:
        now = perf_counter()
        buf = self._local.buffer
        index, children = buf.stack.pop()
        buf.end[index] = now
        if rename is not None:
            buf.name[index] = rename
        covered = 0.0
        for child in children:
            covered += buf.end[child] - buf.start[child]
        buf.self_time[index] = now - buf.start[index] - covered
        buf.stack[-1][1].append(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish()

    def retro(self, name_id: int, seconds: float) -> None:
        """Record a span that ends now and began ``seconds`` ago.

        Siblings that closed inside that window become its children.
        Children close in end order, so they are the tail of the open
        frame's list; the test is on a child's *end* because the window
        start is reconstructed and can land a fraction of a microsecond
        after a first child's own start."""
        now = perf_counter()
        began = now - seconds
        buf = self._buffer()
        frame_index, siblings = buf.stack[-1]
        index = len(buf.start)
        covered = 0.0
        while siblings and buf.end[siblings[-1]] > began:
            child = siblings.pop()
            buf.parent[child] = index
            covered += buf.end[child] - buf.start[child]
        buf.name.append(name_id)
        buf.start.append(began)
        buf.end.append(now)
        buf.self_time.append(seconds - covered)
        buf.parent.append(frame_index)
        siblings.append(index)

    # ------------------------------------------------------------------
    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def totals(self) -> Dict[str, NameTotals]:
        """Per-name aggregates over every closed span of every thread."""
        out: Dict[str, NameTotals] = {name: NameTotals()
                                      for name in self._names}
        by_id = [out[name] for name in self._names]
        for buf in self._buffers:
            open_spans = {frame[0] for frame in buf.stack}
            for index, name_id in enumerate(buf.name):
                if index in open_spans:
                    continue
                slot = by_id[name_id]
                slot.count += 1
                slot.seconds += buf.end[index] - buf.start[index]
                slot.self_seconds += buf.self_time[index]
        return out

    def spans(self, name: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every closed span called ``name``, by start."""
        ident = self._ids.get(name)
        out = []
        for buf in self._buffers:
            for index, name_id in enumerate(buf.name):
                if name_id == ident and buf.end[index] > 0.0:
                    out.append((buf.start[index], buf.end[index]))
        out.sort()
        return out

    def chrome(self, process: str, limit: int = 40_000) -> Dict[str, Any]:
        """The ``limit`` longest spans as a Chrome ``trace_event`` document.

        A parent is never shorter than its child, so keeping the longest
        spans keeps whole ancestor chains and the picture stays nested."""
        rows = []
        for buf in self._buffers:
            for index, name_id in enumerate(buf.name):
                if buf.end[index] > 0.0:
                    rows.append((buf.end[index] - buf.start[index],
                                 buf.start[index], buf.tid, name_id))
        rows.sort(reverse=True)
        rows = rows[:limit]
        origin = min((row[1] for row in rows), default=0.0)
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": process}}]
        for duration, start, tid, name_id in sorted(
                rows, key=lambda row: row[1]):
            events.append({"ph": "X", "pid": 0, "tid": tid,
                           "name": self._names[name_id],
                           "ts": (start - origin) * 1e6,
                           "dur": duration * 1e6})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


#: The tracer wrappers and :class:`TracingProfiler` report to.  Set by
#: :func:`install` for the duration of a traced pass.
ACTIVE: Optional[Tracer] = None


class TracingProfiler(profiling.Profiler):
    """The program's phase profiler, also feeding :data:`ACTIVE`.

    Module-level and stateless beyond its base class so a world that
    carries one stays picklable."""

    def add(self, phase: str, seconds: float = 0.0, count: int = 1) -> None:
        super().add(phase, seconds, count)
        tracer = ACTIVE
        if tracer is not None and seconds > 0.0:
            tracer.retro(tracer.name_id(phase), seconds)


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, final name, callable)`` for ``module:Class.method``."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise WrapTargetError(
            f"cannot wrap {module_name}:{attribute}: {exc}") from exc
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise WrapTargetError(
                f"cannot wrap {module_name}:{attribute}: no {part!r}")
    # vars(), not getattr: an inherited method must be wrapped where it
    # is defined, or the wrapper would shadow it on the subclass only.
    target = vars(owner).get(parts[-1])
    if not callable(target):
        raise WrapTargetError(
            f"cannot wrap {module_name}:{attribute}: {parts[-1]!r} is not "
            f"a callable defined there (renamed or removed?)")
    return owner, parts[-1], target


def _wrap(tracer: Tracer, name_id: int, none_id: Optional[int] = None,
          *, func: Any) -> Any:
    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.begin(name_id)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            tracer.finish(none_id if result is None else None)
    return traced


@contextmanager
def install(tracer: Tracer,
            targets: Sequence[Tuple[str, ...]]) -> Iterator[Tracer]:
    """Wrap ``(module, attribute, span name[, span name when the call
    returns None])`` targets and bridge the program's profiler for the
    duration of the ``with`` block.

    Every target is resolved before the first one is patched, so a
    missing callable raises :class:`WrapTargetError` with nothing left
    half-installed."""
    global ACTIVE
    resolved = [(*_resolve(module, attribute),
                 [tracer.name_id(span) for span in spans])
                for module, attribute, *spans in targets]
    previous_profiler = profiling.Profiler
    previous_tracer = ACTIVE
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for owner, name, func, name_ids in resolved:
            setattr(owner, name, _wrap(tracer, *name_ids, func=func))
            patched.append((owner, name, func))
        profiling.Profiler = TracingProfiler  # type: ignore[misc]
        ACTIVE = tracer
        yield tracer
    finally:
        ACTIVE = previous_tracer
        profiling.Profiler = previous_profiler  # type: ignore[misc]
        for owner, name, func in reversed(patched):
            setattr(owner, name, func)
