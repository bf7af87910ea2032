"""Discrete-event simulation kernel.

The paper evaluates its protocol on SWANS/JiST, a Java discrete-event
simulator.  This module provides the equivalent substrate: a deterministic
event heap with a virtual clock, cancellable events, and periodic tasks.

Determinism guarantees
----------------------
Events scheduled for the same instant fire in the order they were scheduled
(FIFO tie-breaking by a monotonically increasing sequence number).  Heap
entries are ``(time, seq, event)`` tuples, so every sift compares two
floats (and, on a tie, two ints) in C; ``seq`` is unique, so the event
itself is never compared.  Combined with seeded RNG streams
(:mod:`repro.des.random`), a simulation run is fully reproducible from
its seed.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from .. import profiling

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays, running a finished kernel)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be cancelled
    before they fire.  Cancellation is O(1): the event is flagged and skipped
    when popped from the heap.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class Simulator:
    """Event-heap simulation kernel with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, handler, arg1, arg2)
        sim.run(until=100.0)
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still pending on the heap, excluding cancelled
        ones (a cancelled event stays heap-resident until popped but will
        never fire, so it does not count as pending)."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if not 0.0 <= delay < math.inf:
            raise _bad_delay(delay)
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``, which
        must be finite and not in the past."""
        if not self._now <= time < math.inf:
            raise _bad_time(time, self._now)
        seq = self._seq
        event = Event(time, seq, callback, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current time (after the
        currently executing event and any events already queued for now)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns False when the heap is exhausted, True otherwise.
        """
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            event.cancelled = True  # mark fired; `active` becomes False
            self._events_fired += 1
            prof = profiling.ACTIVE
            if prof is None:
                event.callback(*event.args)
            else:
                # kernel.event is inclusive: it contains every phase
                # nested under the callback (crypto, codec, medium, ...).
                start = perf_counter()
                event.callback(*event.args)
                prof.add("kernel.event", perf_counter() - start)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` events have fired.  Returns the final clock value.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, mirroring how wall-clock
        simulators report the end of the simulated window.  A NaN
        ``until`` is refused: no event time compares greater than it, so
        it would bound nothing.
        """
        if until is not None and math.isnan(until):
            raise SimulationError("run bound is NaN")
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while self._heap and not self._stopped:
                if until is not None and self._heap[0][0] > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                if self.step():
                    fired += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events (the clock is preserved)."""
        self._heap.clear()


def _bad_delay(delay: float) -> SimulationError:
    if delay < 0:
        return SimulationError(f"negative delay: {delay}")
    return SimulationError(f"non-finite delay: {delay}")


def _bad_time(time: float, now: float) -> SimulationError:
    if time < now:
        return SimulationError(
            f"cannot schedule in the past: {time} < {now}")
    return SimulationError(f"non-finite event time: {time}")
