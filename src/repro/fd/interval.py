"""Interval failure-detector property checking (§2.2).

The paper defines the I_mute class by two interval properties:

* **Interval Strong Accuracy** — non-mute processes are not suspected by
  any correct process during a *suspicion-free interval*;
* **Interval Local Completeness** — a process mute w.r.t. a correct
  process during a *mute interval* is suspected during a *suspicion
  interval*.

:class:`IntervalChecker` verifies a recorded run against these
definitions: feed it the ground-truth fault schedule (when each node was
actually mute) and the observed suspicion history (from
:class:`repro.metrics.FdScorecard` or the detectors' own listeners), and it
reports which property held over which windows.  Experiment E8 uses the
same logic inline; this module makes it a reusable, testable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["Window", "IntervalChecker", "PropertyReport"]


@dataclass(frozen=True)
class Window:
    """A half-open time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    def overlaps(self, other: "Window") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of checking one I_mute property."""

    holds: bool
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


@dataclass
class IntervalChecker:
    """Accumulates fault windows and suspicion observations."""

    #: node → windows during which it was genuinely mute.
    mute_windows: Dict[int, List[Window]] = field(default_factory=dict)
    #: (observer, target, time) suspicion observations.
    suspicions: List[Tuple[int, int, float]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def declare_mute(self, node: int, start: float, end: float) -> None:
        self.mute_windows.setdefault(node, []).append(Window(start, end))

    def observe_suspicion(self, observer: int, target: int,
                          time: float) -> None:
        self.suspicions.append((observer, target, time))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def was_mute_at(self, node: int, time: float) -> bool:
        return any(w.contains(time)
                   for w in self.mute_windows.get(node, ()))

    def suspicion_times(self, target: int) -> List[float]:
        return sorted(t for _, tgt, t in self.suspicions if tgt == target)

    # ------------------------------------------------------------------
    # The two I_mute properties
    # ------------------------------------------------------------------
    def check_accuracy(self, suspicion_free: Window,
                       correct_nodes: Set[int]) -> PropertyReport:
        """Interval Strong Accuracy over ``suspicion_free``: no correct,
        non-mute node is suspected inside the window."""
        violations = []
        for observer, target, time in self.suspicions:
            if not suspicion_free.contains(time):
                continue
            if target not in correct_nodes:
                continue  # suspecting a Byzantine node is never a violation
            if self.was_mute_at(target, time):
                continue  # it really was mute then
            violations.append(
                f"node {observer} suspected non-mute node {target} "
                f"at t={time:.2f}")
        return PropertyReport(holds=not violations,
                              violations=tuple(violations))

    def check_completeness(self, node: int, mute_window: Window,
                           suspicion_interval: float) -> PropertyReport:
        """Interval Local Completeness: a node mute throughout
        ``mute_window`` is suspected within ``suspicion_interval`` seconds
        of the window's start."""
        deadline = mute_window.start + suspicion_interval
        hits = [t for t in self.suspicion_times(node)
                if mute_window.start <= t <= deadline]
        if hits:
            return PropertyReport(holds=True)
        return PropertyReport(
            holds=False,
            violations=(f"node {node} mute during [{mute_window.start:.2f},"
                        f" {mute_window.end:.2f}) was never suspected by "
                        f"t={deadline:.2f}",))

    def detection_delay(self, node: int,
                        mute_window: Window) -> Optional[float]:
        """Seconds from the mute window's start to the first suspicion."""
        hits = [t for t in self.suspicion_times(node)
                if t >= mute_window.start]
        return hits[0] - mute_window.start if hits else None
