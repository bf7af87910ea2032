"""Sender-side flow control for reliable broadcast.

Footnote 4: "In order to bound the buffers used by such a mechanism, it is
common to use flow control mechanisms."  :class:`FlowControlledSender`
bounds the number of a source's *unstable* messages in flight: new
application sends queue locally until the stability detector confirms the
oldest outstanding message has reached everyone in view, keeping every
node's buffers bounded by ``window × sources`` regardless of how fast the
application produces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.messages import MessageId
from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from .stability import StabilityDetector

__all__ = ["FlowControlledSender"]


class FlowControlledSender:
    """Rate-limits one node's broadcasts by stability acknowledgements."""

    def __init__(self, sim: Simulator, node, stability: StabilityDetector,
                 *, window: int = 8, poll_period: float = 0.5):
        if window < 1:
            raise ValueError("window must be >= 1")
        if poll_period <= 0:
            raise ValueError("poll_period must be positive")
        self._sim = sim
        self._node = node
        self._stability = stability
        self._window = window
        self._queue: Deque[bytes] = deque()
        self._in_flight: Deque[MessageId] = deque()
        self._poll = PeriodicTask(sim, poll_period, self._pump)
        self._poll.start()
        self.sent = 0
        self.queued_high_water = 0

    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        return self._window

    @property
    def backlog(self) -> int:
        """Application messages waiting for window space."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Broadcast but not yet known stable."""
        self._release_stable()
        return len(self._in_flight)

    def send(self, payload: bytes) -> Optional[MessageId]:
        """Broadcast now if the window allows, else queue.

        Returns the message id when broadcast immediately, None if queued.
        """
        self._release_stable()
        if len(self._in_flight) < self._window and not self._queue:
            return self._broadcast(payload)
        self._queue.append(payload)
        self.queued_high_water = max(self.queued_high_water,
                                     len(self._queue))
        return None

    def stop(self) -> None:
        self._poll.stop()

    # ------------------------------------------------------------------
    def _broadcast(self, payload: bytes) -> MessageId:
        msg_id = self._node.broadcast(payload)
        self._in_flight.append(msg_id)
        self.sent += 1
        return msg_id

    def _release_stable(self) -> None:
        while self._in_flight and self._stability.is_stable(
                self._in_flight[0].originator, self._in_flight[0].seq):
            self._in_flight.popleft()

    def _pump(self) -> None:
        self._release_stable()
        while self._queue and len(self._in_flight) < self._window:
            self._broadcast(self._queue.popleft())
