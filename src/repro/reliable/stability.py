"""Stability detection — the alternative purging strategy.

§3.2.2: "Messages can be purged either after a timeout, or by using a
stability detection mechanism.  In this work, we have chosen to use
timeout based purging due to its simplicity."  This module supplies the
road not taken: nodes piggyback their *ack vectors* (per-source highest
contiguous sequence number) on the signed HELLO beacons; every node
aggregates the minimum over all nodes it has recently heard from.  A
message whose sequence number is at or below that network-wide minimum has
been delivered everywhere the node can see — it is **stable** and safe to
purge (:meth:`StabilityDetector.purge_stable`).

This is a classical gossip-style stability protocol (in the spirit of the
paper's reference [efficient buffering work]): conservative (under-
estimates stability when a node is silent) but never wrong in a timely,
fault-free neighborhood.  Byzantine nodes can only *understate* their acks
— delaying stability, never causing a premature purge — because overstating
would merely release buffers they claim not to need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.store import MessageStore
from ..des.kernel import Simulator
from .ordering import FifoDeliveryQueue

__all__ = ["StabilityConfig", "StabilityDetector"]

_EXTRAS_KEY = "acks"


@dataclass(frozen=True)
class StabilityConfig:
    #: Ignore ack reports older than this (silent/departed nodes must not
    #: freeze stability forever).
    report_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.report_timeout <= 0:
            raise ValueError("report_timeout must be positive")


@dataclass
class _Report:
    acks: Dict[int, int]
    at: float


class StabilityDetector:
    """Tracks which (source, seq) pairs are stable in this node's view."""

    def __init__(self, sim: Simulator, neighbors, queue: FifoDeliveryQueue,
                 config: StabilityConfig = StabilityConfig(), *,
                 own_source: Optional[int] = None,
                 own_sent_fn=None):
        """``own_source``/``own_sent_fn`` let the node count its *own*
        broadcasts as trivially delivered at itself (the accept path never
        loops back); ``own_sent_fn()`` returns the highest seq sent."""
        if (own_source is None) != (own_sent_fn is None):
            raise ValueError("own_source and own_sent_fn go together")
        self._sim = sim
        self._queue = queue
        self._config = config
        self._own_source = own_source
        self._own_sent_fn = own_sent_fn
        self._reports: Dict[int, _Report] = {}
        neighbors.add_extras_provider(self._publish)
        neighbors.add_listener(self._on_hello)

    # ------------------------------------------------------------------
    def stable_horizon(self, source: int) -> int:
        """Highest seq of ``source`` known stable (0 if none).

        The minimum of this node's own contiguous horizon and every fresh
        neighbor report.  Sources a reporter has never heard of count as 0
        for that reporter — silence about a source means nothing is known
        to be delivered there.
        """
        if source == self._own_source and self._own_sent_fn is not None:
            horizon = self._own_sent_fn()
        else:
            horizon = self._queue.highest_contiguous(source)
        fresh_cutoff = self._sim.now - self._config.report_timeout
        for report in self._reports.values():
            if report.at < fresh_cutoff:
                continue
            horizon = min(horizon, report.acks.get(source, 0))
        return horizon

    def is_stable(self, source: int, seq: int) -> bool:
        return seq <= self.stable_horizon(source)

    def reporters(self) -> List[int]:
        fresh_cutoff = self._sim.now - self._config.report_timeout
        return sorted(node for node, report in self._reports.items()
                      if report.at >= fresh_cutoff)

    def purge_stable(self, store: MessageStore) -> int:
        """Stability-driven purging: drop from ``store`` the buffered
        payload of every message this node sees as stable.  Returns how
        many were dropped.  Run periodically, it replaces holding every
        message for the whole timeout window."""
        stable = [msg_id for msg_id in store._messages
                  if self.is_stable(msg_id.originator, msg_id.seq)]
        return sum(store.purge_one(msg_id) for msg_id in stable)

    # ------------------------------------------------------------------
    def _publish(self) -> Dict[str, Any]:
        vector = self._queue.ack_vector()
        if self._own_source is not None and self._own_sent_fn is not None:
            vector[self._own_source] = self._own_sent_fn()
        if not vector:
            return {}
        return {_EXTRAS_KEY: tuple(sorted(vector.items()))}

    def _on_hello(self, sender: int, extras: Dict[str, Any]) -> None:
        raw = extras.get(_EXTRAS_KEY)
        if raw is None:
            return
        try:
            acks = {int(source): int(seq) for source, seq in raw}
        except (TypeError, ValueError, OverflowError):
            return  # malformed ack vector from a Byzantine node: ignore
        if any(seq < 0 for seq in acks.values()):
            return
        self._reports[sender] = _Report(acks=acks, at=self._sim.now)
