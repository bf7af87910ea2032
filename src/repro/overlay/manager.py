"""The overlay maintenance driver.

§3.3: "Overlay maintenance is executed by a distributed protocol.  There is
no global knowledge and each node must decide whether it considers itself
an overlay node or not. ... every correct overlay node periodically
publishes this fact to its neighbors ... In each computation step, each
node makes a local computation about whether it thinks it should be in the
overlay or not, and then exchanges its local information with its
neighbors."

The manager wires together:

* the :class:`NeighborService` — state exchange rides piggybacked on the
  signed HELLO beacons ("most overlay maintenance messages can be
  piggybacked on gossip messages");
* the :class:`TrustFailureDetector` — untrusted neighbors are invisible to
  the election, and neighbors' suspicion reports demote third parties to
  ``UNKNOWN`` ("a node that suspects one of its neighbors should notify its
  other neighbors about this suspicion");
* an :class:`ElectionRule` (CDS or MIS+B) that makes the local decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from ..des.random import RandomStream
from ..fd.trust import TrustFailureDetector, TrustLevel
from ..radio.neighbors import NeighborService
from .state import ElectionRule, LocalView, NeighborReport, NodeStatus

__all__ = ["OverlayConfig", "OverlayManager"]

_EXTRAS_KEY = "ov"

#: status, mis_member, neighbors, mis_neighbors, suspects
_ParsedState = Tuple[NodeStatus, bool, FrozenSet[int], FrozenSet[int],
                     FrozenSet[int]]

_STATUS_BY_VALUE = {status.value: status for status in NodeStatus}
_ID_CONTAINERS = (list, tuple, set, frozenset)
_INT_ONLY = frozenset((int,))


def _id_set(value: Any) -> Optional[FrozenSet[int]]:
    """``value`` as a set of node ids, or None unless it is a plain
    container of plain ints (``True``, ``1.5`` and ``"12"`` are not ids)."""
    if not isinstance(value, _ID_CONTAINERS):
        return None
    if not _INT_ONLY.issuperset(map(type, value)):
        return None
    return frozenset(value)


def _parse_state(state: Any) -> Optional[_ParsedState]:
    """The overlay state a beacon carries, or None if any part of it is
    malformed (a Byzantine sender: the whole state is ignored).  Never
    raises; absent keys read as the defaults of an empty report."""
    if not isinstance(state, dict):
        return None
    status = state.get("status", NodeStatus.PASSIVE.value)
    if type(status) is not str or status not in _STATUS_BY_VALUE:
        return None
    mis = state.get("mis", False)
    if type(mis) is not bool:
        return None
    neighbors = _id_set(state.get("nbrs", ()))
    mis_neighbors = _id_set(state.get("misnbrs", ()))
    suspects = _id_set(state.get("suspects", ()))
    if neighbors is None or mis_neighbors is None or suspects is None:
        return None
    return (_STATUS_BY_VALUE[status], mis, neighbors, mis_neighbors,
            suspects)


# One-entry memo of _parse_state.  A beacon is one frozen message whose
# state dict reaches every receiver by reference, and the medium calls
# those receivers back to back, so remembering the last dict parsed
# turns k parses per beacon into one.  Keyed on object identity (the
# strong reference keeps the id from being reused): two distinct beacons
# with equal contents never share the entry.  Not part of any world, so
# nothing of it is pickled; it holds one beacon's state until the next.
_last_state: Any = None
_last_parsed: Optional[_ParsedState] = None     # == _parse_state(None)


def _parse_state_once(state: Any) -> Optional[_ParsedState]:
    global _last_state, _last_parsed
    if state is not _last_state:
        _last_parsed = _parse_state(state)
        _last_state = state
    return _last_parsed


@dataclass(frozen=True)
class OverlayConfig:
    step_period: float = 1.0        # seconds between local computation steps
    report_timeout: float = 4.0     # discard neighbor reports older than this

    def __post_init__(self) -> None:
        if self.step_period <= 0:
            raise ValueError("step_period must be positive")
        if self.report_timeout <= 0:
            raise ValueError("report_timeout must be positive")


class OverlayManager:
    """One node's view of — and participation in — the overlay."""

    def __init__(self, sim: Simulator, node_id: int,
                 neighbors: NeighborService, trust: TrustFailureDetector,
                 rule: ElectionRule, rng: RandomStream,
                 config: OverlayConfig = OverlayConfig()):
        self._sim = sim
        self._node_id = node_id
        self._neighbors = neighbors
        self._trust = trust
        self._rule = rule
        self._config = config
        self._status = NodeStatus.PASSIVE
        self._mis = False
        self._reports: Dict[int, NeighborReport] = {}
        self._status_listeners: List = []
        self._step_task = PeriodicTask(sim, config.step_period, self.step_now,
                                       jitter=0.2, rng=rng)
        neighbors.add_extras_provider(self._publish_state)
        neighbors.add_listener(self._on_neighbor_state)

    def add_status_listener(self, listener) -> None:
        """``listener(node_id, new_status)`` fires on every status flip."""
        self._status_listeners.append(listener)

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def rule(self) -> ElectionRule:
        return self._rule

    @property
    def status(self) -> NodeStatus:
        return self._status

    @property
    def in_overlay(self) -> bool:
        """OVERLAY membership: the node currently considers itself active."""
        return self._status is NodeStatus.ACTIVE

    def start(self) -> None:
        self.step_now()
        self._step_task.start()

    def stop(self) -> None:
        self._step_task.stop()

    # ------------------------------------------------------------------
    # Queries used by the broadcast protocol
    # ------------------------------------------------------------------
    def overlay_neighbors(self) -> List[int]:
        """OL(1, p): direct neighbors believed to be in the overlay.

        Excludes UNTRUSTED nodes — "correct nodes do not consider mute and
        verbose nodes as their overlay neighbors".
        """
        result = []
        for neighbor in self._neighbors.neighbors():
            if self._trust.level(neighbor) is TrustLevel.UNTRUSTED:
                continue
            report = self._fresh_report(neighbor)
            if report is not None and report.status is NodeStatus.ACTIVE:
                result.append(neighbor)
        return result

    def trusted_neighbors(self) -> List[int]:
        return [n for n in self._neighbors.neighbors()
                if self._trust.level(n) is TrustLevel.TRUSTED]

    def neighbor_report(self, node_id: int) -> Optional[NeighborReport]:
        return self._reports.get(node_id)

    # ------------------------------------------------------------------
    # Computation step (§3.3)
    # ------------------------------------------------------------------
    def step_now(self) -> NodeStatus:
        """Run one local computation step and adopt the decision."""
        previous = self._status
        view = self.build_view()
        self._mis = self._rule.mis_member(view)
        # The rule sees our fresh MIS claim the same way neighbors do.
        self._status = self._rule.decide(view)
        if self._status is not previous:
            for listener in self._status_listeners:
                listener(self._node_id, self._status)
        return self._status

    def build_view(self) -> LocalView:
        trusted = frozenset(self.trusted_neighbors())
        neighbor_neighbors: Dict[int, frozenset] = {}
        neighbor_status: Dict[int, NodeStatus] = {}
        neighbor_mis: Dict[int, bool] = {}
        neighbor_mis_neighbors: Dict[int, frozenset] = {}
        for neighbor in trusted:
            report = self._fresh_report(neighbor)
            if report is None:
                continue
            neighbor_neighbors[neighbor] = report.neighbors
            neighbor_status[neighbor] = report.status
            neighbor_mis[neighbor] = report.mis_member
            neighbor_mis_neighbors[neighbor] = report.mis_neighbors
        return LocalView(
            node_id=self._node_id,
            trusted_neighbors=trusted,
            neighbor_neighbors=neighbor_neighbors,
            neighbor_status=neighbor_status,
            neighbor_mis=neighbor_mis,
            neighbor_mis_neighbors=neighbor_mis_neighbors,
        )

    # ------------------------------------------------------------------
    # State exchange (piggybacked on HELLOs)
    # ------------------------------------------------------------------
    def _publish_state(self) -> Dict[str, Any]:
        suspects = tuple(self._trust.untrusted_nodes())
        neighbors = self._neighbors.neighbors()
        mis_adjacent = tuple(sorted(
            n for n in neighbors
            if self._trust.level(n) is TrustLevel.TRUSTED
            and (report := self._fresh_report(n)) is not None
            and report.mis_member))
        return {
            _EXTRAS_KEY: {
                "status": self._status.value,
                "mis": self._mis,
                "nbrs": tuple(neighbors),
                "misnbrs": mis_adjacent,
                "suspects": suspects,
            }
        }

    def _on_neighbor_state(self, sender: int,
                           extras: Dict[str, Any]) -> None:
        parsed = _parse_state_once(extras.get(_EXTRAS_KEY))
        if parsed is None:
            return  # no state, or malformed state from a Byzantine node
        status, mis, neighbors, mis_neighbors, suspects = parsed
        self._reports[sender] = NeighborReport(
            status=status, mis_member=mis, neighbors=neighbors,
            mis_neighbors=mis_neighbors, suspects=suspects,
            updated_at=self._sim.now)
        for suspected in suspects:
            if suspected == self._node_id:
                continue  # reports about ourselves are not actionable
            self._trust.report_from_peer(sender, suspected)

    def _fresh_report(self, node_id: int) -> Optional[NeighborReport]:
        report = self._reports.get(node_id)
        if report is None:
            return None
        if self._sim.now - report.updated_at > self._config.report_timeout:
            return None
        return report
