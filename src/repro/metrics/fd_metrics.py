"""Failure-detector quality metrics: precision/recall of suspicions.

Given the ground-truth Byzantine set, scores every (observer, target)
suspicion the detectors raised:

* **recall (completeness)** — how many Byzantine nodes were suspected by
  at least one correct observer;
* **precision (accuracy)**  — what fraction of raised suspicions pointed
  at genuinely Byzantine nodes;
* **detection latency**     — time from a reference instant (e.g. the
  first broadcast) to the first true-positive suspicion.

These are the empirical counterparts of the I_mute interval properties
(§2.2) measured by experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["SuspicionEvent", "FdScorecard"]


@dataclass(frozen=True)
class SuspicionEvent:
    time: float
    observer: int
    target: int
    detector: str


@dataclass
class FdScorecard:
    """Accumulates suspicion events against a ground-truth fault set."""

    byzantine: Set[int]
    correct: Set[int]
    events: List[SuspicionEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_node(self, node, sim) -> "FdScorecard":
        """Subscribe to one node's MUTE and VERBOSE detectors."""
        node.mute.add_listener(
            lambda target, reason, me=node.node_id:
            self.record(sim.now, me, target, "mute"))
        node.verbose.add_listener(
            lambda target, reason, me=node.node_id:
            self.record(sim.now, me, target, "verbose"))
        return self

    def attach_network(self, nodes, sim) -> "FdScorecard":
        for node in nodes:
            if node.node_id in self.correct:
                self.attach_node(node, sim)
        return self

    def record(self, time: float, observer: int, target: int,
               detector: str) -> None:
        if observer not in self.correct:
            return  # Byzantine observers' opinions are not scored
        self.events.append(SuspicionEvent(time=time, observer=observer,
                                          target=target, detector=detector))

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    @property
    def true_positives(self) -> List[SuspicionEvent]:
        return [e for e in self.events if e.target in self.byzantine]

    @property
    def false_positives(self) -> List[SuspicionEvent]:
        return [e for e in self.events if e.target not in self.byzantine]

    def precision(self) -> Optional[float]:
        if not self.events:
            return None
        return len(self.true_positives) / len(self.events)

    def recall(self) -> float:
        """Fraction of Byzantine nodes suspected at least once."""
        if not self.byzantine:
            return 1.0
        caught = {e.target for e in self.true_positives}
        return len(caught) / len(self.byzantine)

    def detection_latency(self, target: int,
                          since: float = 0.0) -> Optional[float]:
        """Seconds from ``since`` to the first suspicion of ``target``."""
        times = [e.time for e in self.events
                 if e.target == target and e.time >= since]
        return min(times) - since if times else None

    def wrongly_suspected_nodes(self) -> Set[int]:
        return {e.target for e in self.false_positives}

    def summary(self) -> Dict[str, object]:
        return {
            "events": len(self.events),
            "precision": self.precision(),
            "recall": self.recall(),
            "wrongly_suspected": sorted(self.wrongly_suspected_nodes()),
        }
