"""Per-source FIFO ordering on top of the broadcast primitive.

Footnote 4 of the paper: "Clearly, with this property [eventual
dissemination] it is possible to implement a reliable delivery mechanism."
This module is that mechanism's ordering half: it consumes the protocol's
``accept`` events (which may arrive out of order — recovery re-fetches
older messages after newer ones) and delivers each source's messages to
the application in sequence-number order, exactly once.

Gap policy
----------
Because originators number messages contiguously, a hole in the sequence
is detectable locally.  The underlying gossip/recovery machinery is what
actually fills holes; this layer only decides what to do if a hole
*persists* (e.g. the network purged the message before this node could
recover it):

* ``GapPolicy.STALL``  — hold back-messages forever (strict FIFO);
* ``GapPolicy.SKIP``   — after ``gap_timeout`` seconds, declare the
  missing message lost, emit a gap notification, and resume delivery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..des.kernel import Simulator

__all__ = ["GapPolicy", "FifoDeliveryQueue"]

DeliverCallback = Callable[[int, int, bytes], None]   # (source, seq, payload)
GapCallback = Callable[[int, int], None]              # (source, skipped seq)


class GapPolicy(enum.Enum):
    STALL = "stall"
    SKIP = "skip"


@dataclass
class _SourceState:
    next_seq: int = 1
    pending: Dict[int, bytes] = field(default_factory=dict)
    gap_deadline: Optional[float] = None


class FifoDeliveryQueue:
    """Reorders one node's accepted messages into per-source FIFO order."""

    def __init__(self, sim: Simulator, deliver: DeliverCallback, *,
                 gap_policy: GapPolicy = GapPolicy.STALL,
                 gap_timeout: float = 30.0,
                 on_gap: Optional[GapCallback] = None):
        if gap_timeout <= 0:
            raise ValueError("gap_timeout must be positive")
        self._sim = sim
        self._deliver = deliver
        self._gap_policy = gap_policy
        self._gap_timeout = gap_timeout
        self._on_gap = on_gap
        self._sources: Dict[int, _SourceState] = {}
        self.delivered = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    def offer(self, source: int, seq: int, payload: bytes) -> None:
        """Feed one accepted message (any order; duplicates ignored)."""
        state = self._sources.setdefault(source, _SourceState())
        if seq < state.next_seq or seq in state.pending:
            return  # already delivered or already queued
        state.pending[seq] = payload
        self._drain(source, state)
        if state.pending and self._gap_policy is GapPolicy.SKIP \
                and state.gap_deadline is None:
            self._arm_gap_timer(source, state)

    def expected_next(self, source: int) -> int:
        state = self._sources.get(source)
        return state.next_seq if state else 1

    def pending_count(self, source: int) -> int:
        state = self._sources.get(source)
        return len(state.pending) if state else 0

    def highest_contiguous(self, source: int) -> int:
        """The highest seq delivered in order so far (the ack horizon)."""
        return self.expected_next(source) - 1

    def ack_vector(self) -> Dict[int, int]:
        """source → highest contiguous seq (for stability exchange)."""
        return {source: state.next_seq - 1
                for source, state in self._sources.items()}

    # ------------------------------------------------------------------
    def _drain(self, source: int, state: _SourceState) -> None:
        while state.next_seq in state.pending:
            payload = state.pending.pop(state.next_seq)
            self._deliver(source, state.next_seq, payload)
            self.delivered += 1
            state.next_seq += 1
            state.gap_deadline = None

    def _arm_gap_timer(self, source: int, state: _SourceState) -> None:
        deadline = self._sim.now + self._gap_timeout
        state.gap_deadline = deadline
        self._sim.schedule_at(deadline, self._check_gap, source, deadline)

    def _check_gap(self, source: int, deadline: float) -> None:
        state = self._sources.get(source)
        if state is None or state.gap_deadline != deadline:
            return  # the gap filled (or a newer timer superseded this one)
        if not state.pending:
            state.gap_deadline = None
            return
        skipped = state.next_seq
        if self._on_gap is not None:
            self._on_gap(source, skipped)
        self.skipped += 1
        state.next_seq += 1
        state.gap_deadline = None
        self._drain(source, state)
        if state.pending:
            self._arm_gap_timer(source, state)
