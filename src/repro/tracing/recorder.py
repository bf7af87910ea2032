"""Structured simulation event tracing.

A :class:`TraceRecorder` subscribes to the observable seams of a running
simulation — physical-layer events, application accepts, failure-detector
suspicions, trust changes, overlay status flips — and records them as a
uniform, queryable, exportable event stream.  Useful for debugging
protocol behaviour and for building timelines in examples/notebooks
without instrumenting protocol code.

It is a standalone tool for networks built by hand (or by
:meth:`repro.sim.NetworkBuilder.with_tracing`).  Observed experiments do
not use it: their event stream is the :class:`~repro.obs.ObsContext`
span stream.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from ..core.messages import MessageId
from ..des.kernel import Simulator
from ..obs.context import flat_row
from ..radio.medium import Medium, MediumObserver
from ..radio.packet import Packet

__all__ = ["TraceEvent", "TraceRecorder"]


class TraceEvent:
    """One recorded occurrence.

    ``seq`` is the recorder's monotonic emission index.  ``to_dict``
    rounds ``time`` for readability, which can collapse distinct events
    recorded within the same microsecond — ``seq`` keeps the exported
    order total and re-importable regardless: no detail key can shadow
    it (or ``time``/``category``/``node``) in the exported row.
    """

    __slots__ = ("time", "category", "node", "details", "seq")

    def __init__(self, time: float, category: str, node: int,
                 details: Dict[str, Any], seq: int):
        self.time = time
        self.category = category
        self.node = node
        self.details = details
        self.seq = seq

    def _value(self):
        return (self.time, self.category, self.node, self.details, self.seq)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return self._value() == other._value()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (f"TraceEvent(time={self.time!r}, "
                f"category={self.category!r}, node={self.node!r}, "
                f"details={self.details!r}, seq={self.seq!r})")

    def __getstate__(self):
        return self._value()

    def __setstate__(self, state):
        (self.time, self.category, self.node, self.details,
         self.seq) = state

    def to_dict(self) -> Dict[str, Any]:
        return flat_row({"seq": self.seq, "time": round(self.time, 6),
                         "category": self.category, "node": self.node},
                        self.details)


class _MediumTap(MediumObserver):
    def __init__(self, recorder: "TraceRecorder"):
        self._recorder = recorder

    def on_transmit(self, sender: int, packet: Packet) -> None:
        self._recorder.record("tx", sender, kind=packet.kind,
                              size=packet.size_bytes)

    def on_deliver(self, receiver: int, packet: Packet) -> None:
        self._recorder.record("rx", receiver, kind=packet.kind,
                              sender=packet.sender)

    def on_collision(self, receiver: int, packet: Packet) -> None:
        self._recorder.record("collision", receiver, kind=packet.kind,
                              sender=packet.sender)


# The listener taps below are classes, not lambdas, so that a network
# carrying an attached recorder stays picklable — checkpoints snapshot
# nodes together with their listener lists.
class _AcceptTap:
    def __init__(self, recorder: "TraceRecorder"):
        self._recorder = recorder

    def __call__(self, receiver: int, originator: int, payload: bytes,
                 msg_id: MessageId) -> None:
        # ``msg_seq``, not ``seq``: that row key is the stream position.
        self._recorder.record("accept", receiver, originator=originator,
                              msg_seq=msg_id.seq)


class _SuspectTap:
    def __init__(self, recorder: "TraceRecorder", node_id: int,
                 detector: str):
        self._recorder = recorder
        self._node_id = node_id
        self._detector = detector

    def __call__(self, target: int, reason) -> None:
        self._recorder.record("suspect", self._node_id, target=target,
                              detector=self._detector)


class _TrustTap:
    def __init__(self, recorder: "TraceRecorder", node_id: int):
        self._recorder = recorder
        self._node_id = node_id

    def __call__(self, target: int, level) -> None:
        self._recorder.record("trust", self._node_id, target=target,
                              level=level.name)


class _OverlayTap:
    def __init__(self, recorder: "TraceRecorder"):
        self._recorder = recorder

    def __call__(self, node_id: int, status) -> None:
        self._recorder.record("overlay", node_id, status=status.value)


class _ChaosTap:
    def __init__(self, recorder: "TraceRecorder"):
        self._recorder = recorder

    def __call__(self, time: float, event) -> None:
        self._recorder.record("chaos", event.node, action=event.action,
                              params=dict(event.params))


class _ViolationTap:
    def __init__(self, recorder: "TraceRecorder"):
        self._recorder = recorder

    def __call__(self, violation) -> None:
        detail = dict(violation.detail)
        if "seq" in detail:
            # The oracle's ``seq`` is the message's; in the stream that
            # key is the row's position, so it travels as ``msg_seq``.
            detail = {("msg_seq" if key == "seq" else key): value
                      for key, value in detail.items()}
        self._recorder.record("violation", violation.node,
                              invariant=violation.invariant, **detail)


class TraceRecorder:
    """Collects :class:`TraceEvent` objects from a live simulation."""

    #: Categories recorded when no filter is supplied.
    ALL_CATEGORIES = ("tx", "rx", "collision", "accept", "suspect",
                      "trust", "overlay", "chaos", "violation", "profile")

    def __init__(self, sim: Simulator,
                 categories: Optional[Iterable[str]] = None,
                 capacity: Optional[int] = None):
        self._sim = sim
        self._categories = (set(categories) if categories is not None
                            else set(self.ALL_CATEGORIES))
        unknown = self._categories - set(self.ALL_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self._capacity = capacity
        #: The recorded events in ``seq`` order.
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_medium(self, medium: Medium) -> "TraceRecorder":
        """Tap the medium for ``tx``/``rx``/``collision`` — unless the
        category filter excludes all three: the tap would then be called
        per transmit, delivery and collision only for every event to be
        discarded."""
        if not self._categories.isdisjoint(("tx", "rx", "collision")):
            medium.add_observer(_MediumTap(self))
        return self

    def attach_node(self, node) -> "TraceRecorder":
        """Hook a :class:`repro.core.NetworkNode`'s observable seams."""
        node.add_accept_listener(_AcceptTap(self))
        node.mute.add_listener(_SuspectTap(self, node.node_id, "mute"))
        node.verbose.add_listener(_SuspectTap(self, node.node_id, "verbose"))
        node.trust.add_listener(_TrustTap(self, node.node_id))
        node.overlay.add_status_listener(_OverlayTap(self))
        return self

    def attach_network(self, medium: Medium, nodes) -> "TraceRecorder":
        self.attach_medium(medium)
        for node in nodes:
            self.attach_node(node)
        return self

    def attach_chaos(self, controller) -> "TraceRecorder":
        """Record each applied fault of a
        :class:`repro.chaos.ChaosController`."""
        controller.add_listener(_ChaosTap(self))
        return self

    def attach_oracle(self, oracle) -> "TraceRecorder":
        """Record each :class:`repro.chaos.InvariantViolation` as it is
        observed."""
        oracle.add_listener(_ViolationTap(self))
        return self

    def record_profile(self, profiler) -> "TraceRecorder":
        """Snapshot a :class:`repro.profiling.Profiler` into the stream.

        Emits one ``profile`` event per phase at the current virtual time
        (node -1: the profile is a whole-simulation aggregate, not any
        single node's).  Call it at milestones — e.g. end of warmup and
        end of run — to see how phase costs accumulate over a timeline.
        """
        for phase, stats in sorted(profiler.phases().items()):
            self.record("profile", -1, phase=phase, count=stats.count,
                        seconds=round(stats.seconds, 6))
        return self

    # ------------------------------------------------------------------
    # Recording and querying
    # ------------------------------------------------------------------
    def record(self, category: str, node: int, **details: Any) -> None:
        """Append one ``category`` event at the current virtual time,
        unless the category filter excludes it or ``capacity`` is spent
        (counted in :attr:`dropped`)."""
        if "seq" in details or "time" in details:
            raise ValueError(
                "'seq' and 'time' are stream columns, not detail keys")
        if category not in self._categories:
            return
        events = self.events
        if self._capacity is not None and len(events) >= self._capacity:
            self.dropped += 1
            return
        events.append(TraceEvent(self._sim.now, category, node, details,
                                 len(events) + 1))

    def select(self, category: Optional[str] = None,
               node: Optional[int] = None,
               since: float = float("-inf"),
               until: float = float("inf")) -> List[TraceEvent]:
        return [event for event in self.events
                if (category is None or event.category == category)
                and (node is None or event.node == node)
                and since <= event.time <= until]

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.category] = totals.get(event.category, 0) + 1
        return totals

    def first(self, category: str, **match: Any) -> Optional[TraceEvent]:
        """The earliest event of ``category`` whose details match."""
        for event in self.events:
            if event.category != category:
                continue
            if all(event.details.get(k) == v for k, v in match.items()):
                return event
        return None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write events as JSON Lines; returns the event count."""
        events = self.events
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event.to_dict()) + "\n")
        return len(events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
