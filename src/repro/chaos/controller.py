"""Replays a :class:`FaultSchedule` against a live network.

The controller owns no policy: it schedules one kernel event per fault and
dispatches to the hooks the node stack exposes (behaviour swap, crash/
restart, radio impairments, attacker lifecycle).  All randomness a fault
needs (e.g. a ``selective_drop`` behaviour's coin) is drawn from streams
named by the fault's position in the schedule, so a chaos run is exactly
as reproducible as a fault-free one — per seed, independent of worker
processes and of the medium's indexing strategy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..adversary.policies import make_attacker, make_behavior
from ..adversary.behaviors import MuteBehavior
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from .schedule import FaultEvent, FaultSchedule

__all__ = ["ChaosController"]

#: listener(time, event) — fired after each fault has been applied.
ChaosListener = Callable[[float, FaultEvent], None]


class ChaosController:
    """Applies scheduled fault events to the nodes of one simulation."""

    def __init__(self, sim: Simulator, nodes, schedule: FaultSchedule,
                 streams: StreamFactory):
        self._sim = sim
        self._schedule = schedule
        self._streams = streams
        self._nodes = {node.node_id: node for node in nodes}
        self._attackers: Dict[int, Any] = {}
        self._listeners: List[ChaosListener] = []
        #: (time, event) pairs in application order, for reports/tests.
        self.applied: List[Tuple[float, FaultEvent]] = []
        unknown = [event.node for event in schedule.events
                   if event.node not in self._nodes]
        if unknown:
            raise ValueError(
                f"fault schedule targets unknown nodes {sorted(set(unknown))}")

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    def add_listener(self, listener: ChaosListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Schedule every fault at ``at + event.time`` (``at`` is the
        workload epoch, i.e. the end of warmup)."""
        for index, event in enumerate(self._schedule.events):
            self._sim.schedule_at(at + event.time, self._apply, index, event)

    def stop(self) -> None:
        """Detach any attackers still running (end-of-run cleanup)."""
        for attacker in self._attackers.values():
            attacker.stop()
        self._attackers.clear()

    # ------------------------------------------------------------------
    def _apply(self, index: int, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        handler = getattr(self, f"_do_{event.action}")
        handler(index, event, node)
        self.applied.append((self._sim.now, event))
        for listener in self._listeners:
            listener(self._sim.now, event)

    def _rng(self, index: int, event: FaultEvent):
        """A fresh stream per fault, named by schedule position — stable
        across runs, workers, and indexing strategies."""
        return self._streams.stream(f"chaos:{index}:{event.node}")

    @staticmethod
    def _require(node, attribute: str, event: FaultEvent):
        value = getattr(node, attribute, None)
        if value is None:
            raise ValueError(
                f"node {event.node} ({type(node).__name__}) does not "
                f"support the {event.action!r} fault (missing "
                f"{attribute!r})")
        return value

    # ------------------------------------------------------------------
    # Action handlers
    # ------------------------------------------------------------------
    def _do_mute(self, index: int, event: FaultEvent, node) -> None:
        self._require(node, "set_behavior", event)(MuteBehavior())

    def _do_recover(self, index: int, event: FaultEvent, node) -> None:
        self._require(node, "set_behavior", event)(None)

    def _do_behavior(self, index: int, event: FaultEvent, node) -> None:
        params = dict(event.params)
        kind = params.pop("kind")
        behavior = make_behavior(kind, self._rng(index, event), **params)
        self._require(node, "set_behavior", event)(behavior)

    def _do_crash(self, index: int, event: FaultEvent, node) -> None:
        attacker = self._attackers.pop(event.node, None)
        if attacker is not None:
            attacker.stop()
        self._require(node, "crash", event)()

    def _do_restart(self, index: int, event: FaultEvent, node) -> None:
        reset = bool(event.params.get("reset_state", True))
        self._require(node, "restart", event)(reset_state=reset)

    def _do_deaf(self, index: int, event: FaultEvent, node) -> None:
        self._require(node, "radio", event).set_deaf(True)

    def _do_hear(self, index: int, event: FaultEvent, node) -> None:
        self._require(node, "radio", event).set_deaf(False)

    def _do_tx_power(self, index: int, event: FaultEvent, node) -> None:
        factor = float(event.params.get("factor", 0.5))
        self._require(node, "radio", event).set_tx_power_factor(factor)

    def _do_attacker_start(self, index: int, event: FaultEvent,
                           node) -> None:
        params = dict(event.params)
        kind = params.pop("kind", "request_flood")
        self._require(node, "protocol", event)  # attackers need the stack
        previous = self._attackers.pop(event.node, None)
        if previous is not None:
            previous.stop()
        attacker = make_attacker(kind, self._sim, node,
                                 self._rng(index, event), **params)
        attacker.start()
        self._attackers[event.node] = attacker

    def _do_attacker_stop(self, index: int, event: FaultEvent,
                          node) -> None:
        attacker = self._attackers.pop(event.node, None)
        if attacker is not None:
            attacker.stop()
