"""Run-level metrics collection.

The collector tracks every broadcast and every accept, and reads the
physical-layer counters off the medium, producing the quantities the
paper's evaluation reports: delivery ratio, dissemination latency, and
message/byte overhead by packet type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..core.messages import MessageId
from ..radio.medium import Medium

__all__ = ["BroadcastRecord", "MetricsCollector"]


@dataclass
class BroadcastRecord:
    """One broadcast message's delivery bookkeeping."""

    msg_id: MessageId
    sent_at: float
    expected: Set[int]
    accepted_at: Dict[int, float] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        if not self.expected:
            return 1.0
        reached = sum(1 for node in self.expected if node in self.accepted_at)
        return reached / len(self.expected)

    @property
    def complete(self) -> bool:
        return all(node in self.accepted_at for node in self.expected)

    def latencies(self) -> List[float]:
        return [at - self.sent_at
                for node, at in sorted(self.accepted_at.items())
                if node in self.expected]

    @property
    def completion_latency(self) -> Optional[float]:
        """Time until the *last* expected node accepted (None if
        incomplete) — the §3.5 dissemination-time quantity."""
        if not self.complete:
            return None
        if not self.expected:
            return 0.0
        return max(self.accepted_at[node] for node in self.expected) \
            - self.sent_at


class _ClockedAcceptListener:
    """Feeds accepts into a collector stamped with the simulation clock."""

    __slots__ = ("_collector", "_sim")

    def __init__(self, collector: "MetricsCollector", sim):
        self._collector = collector
        self._sim = sim

    def __call__(self, receiver: int, originator: int, payload: bytes,
                 msg_id: MessageId) -> None:
        self._collector.on_accept(receiver, msg_id, self._sim.now)


class MetricsCollector:
    """Aggregates delivery records and physical-layer counters."""

    def __init__(self, correct_nodes: Set[int]):
        self._correct = set(correct_nodes)
        self._records: Dict[MessageId, BroadcastRecord] = {}
        self._unexpected_accepts = 0

    @property
    def correct_nodes(self) -> Set[int]:
        return set(self._correct)

    @property
    def records(self) -> List[BroadcastRecord]:
        return list(self._records.values())

    # ------------------------------------------------------------------
    # Event feeds
    # ------------------------------------------------------------------
    def on_broadcast(self, msg_id: MessageId, time: float) -> None:
        """Record a broadcast; expected recipients are all correct nodes
        other than the originator."""
        expected = self._correct - {msg_id.originator}
        self._records[msg_id] = BroadcastRecord(
            msg_id=msg_id, sent_at=time, expected=expected)

    def on_accept(self, receiver: int, msg_id: MessageId,
                  time: float) -> None:
        record = self._records.get(msg_id)
        if record is None:
            self._unexpected_accepts += 1
            return
        record.accepted_at.setdefault(receiver, time)

    def listener(self, sim) -> "_ClockedAcceptListener":
        """An accept listener bound to the simulation clock, in the shape
        node.add_accept_listener expects.  A picklable object (not a
        closure) so networks carrying it survive checkpointing."""
        return _ClockedAcceptListener(self, sim)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def broadcast_count(self) -> int:
        return len(self._records)

    def delivery_ratio(self) -> float:
        records = self.records
        if not records:
            return 1.0
        return sum(r.delivery_ratio for r in records) / len(records)

    def complete_fraction(self) -> float:
        records = self.records
        if not records:
            return 1.0
        return sum(1 for r in records if r.complete) / len(records)

    def all_latencies(self) -> List[float]:
        values: List[float] = []
        for record in self.records:
            values.extend(record.latencies())
        return values

    def mean_latency(self) -> Optional[float]:
        values = self.all_latencies()
        return sum(values) / len(values) if values else None

    def max_latency(self) -> Optional[float]:
        values = self.all_latencies()
        return max(values) if values else None

    def percentile_latency(self, fraction: float) -> Optional[float]:
        values = sorted(self.all_latencies())
        if not values:
            return None
        index = min(len(values) - 1, int(fraction * len(values)))
        return values[index]

    def completion_latencies(self) -> List[float]:
        return [r.completion_latency for r in self.records
                if r.completion_latency is not None]

    # ------------------------------------------------------------------
    def physical_summary(self, medium: Medium) -> Dict[str, float]:
        stats = medium.stats
        return {
            "transmissions": stats.transmissions,
            "bytes_sent": stats.bytes_sent,
            "deliveries": stats.deliveries,
            "collisions": stats.collisions,
            "propagation_losses": stats.propagation_losses,
            "half_duplex_losses": stats.half_duplex_losses,
            **{f"tx_{kind}": count
               for kind, count in sorted(stats.by_kind.items())},
            **{f"bytes_{kind}": count
               for kind, count in sorted(stats.bytes_by_kind.items())},
        }
