"""Active attackers and adversary assignment.

Passive misbehaviour (dropping, corrupting) lives in
:mod:`repro.adversary.behaviors`.  This module adds *active* attackers that
inject extra traffic — the verbose failure class ("send too many messages
that may cause other nodes to react with messages of their own, thereby
degrading the performance of the system") — plus a small factory that turns
scenario strings into behaviour objects.
"""

from __future__ import annotations

from typing import Optional

from ..core.messages import GOSSIP, REQUEST_MSG, GossipPacket, RequestMessage
from ..core.node import NetworkNode
from ..core.protocol import NodeBehavior
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..des.timers import PeriodicTask
from .behaviors import (
    DeafBehavior,
    ForgingBehavior,
    GossipLiarBehavior,
    ImpersonationBehavior,
    LimitedSendBehavior,
    MuteBehavior,
    SelectiveDropBehavior,
)

__all__ = [
    "RequestFloodAttacker",
    "GossipFloodAttacker",
    "make_behavior",
    "make_attacker",
    "BEHAVIOR_KINDS",
    "ATTACKER_KINDS",
]


class RequestFloodAttacker:
    """Floods REQUEST_MSGs for messages the attacker already holds.

    Each request is well-signed (the attacker owns its key), so receivers
    cannot reject it as forged — only the VERBOSE counting mechanism
    ("receives a REQUEST_MSG for the same message m too many times from the
    same node q") identifies and eventually silences the attacker.  Used by
    experiment E9.
    """

    def __init__(self, sim: Simulator, node: NetworkNode, rng: RandomStream,
                 rate_hz: float = 10.0):
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        self._sim = sim
        self._node = node
        self._rng = rng
        self._task = PeriodicTask(sim, 1.0 / rate_hz, self._fire,
                                  jitter=0.2, rng=rng)
        self.requests_injected = 0

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def _fire(self) -> None:
        store = self._node.protocol.store
        gossips = [store.gossip(msg_id) for msg_id in self._known_ids()]
        gossips = [g for g in gossips if g is not None]
        if not gossips:
            return
        gossip = self._rng.choice(gossips)
        victims = self._node.neighbors.neighbors()
        if not victims:
            return
        target = self._rng.choice(victims)
        request = RequestMessage.create(self._node.signer, gossip, target)
        size = (self._node.protocol.config.control_header_size
                + self._node.protocol.config.gossip_entry_size)
        self._node.radio.send(request, size_bytes=size, kind=REQUEST_MSG)
        self.requests_injected += 1

    def _known_ids(self):
        store = self._node.protocol.store
        # Replay requests for anything we ever gossiped about.
        return [record for record in getattr(store, "_gossips", {})]


class GossipFloodAttacker:
    """Re-sends the node's current gossip batch far above the legal rate,
    violating the VERBOSE minimum-spacing policy installed at init time."""

    def __init__(self, sim: Simulator, node: NetworkNode, rng: RandomStream,
                 rate_hz: float = 20.0):
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        self._sim = sim
        self._node = node
        self._task = PeriodicTask(sim, 1.0 / rate_hz, self._fire,
                                  jitter=0.2, rng=rng)
        self.packets_injected = 0

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def _fire(self) -> None:
        store = self._node.protocol.store
        batch = store.gossip_batch(8)
        if not batch:
            return
        packet = GossipPacket(entries=tuple(batch))
        config = self._node.protocol.config
        size = packet.wire_size(self._node.directory,
                                config.control_header_size,
                                config.gossip_entry_size)
        self._node.radio.send(packet, size_bytes=size, kind=GOSSIP)
        self.packets_injected += 1


BEHAVIOR_KINDS = ("correct", "mute", "selective_drop", "limited_send",
                  "forging", "impersonation", "gossip_liar", "deaf")

ATTACKER_KINDS = ("request_flood", "gossip_flood")


def make_attacker(kind: str, sim: Simulator, node: NetworkNode,
                  rng: RandomStream, **kwargs):
    """Build an active attacker riding on ``node`` from a scenario string.

    Used by the chaos timeline (``attacker_start`` events) and by
    experiment scripts; the caller owns start/stop.
    """
    kind = kind.lower()
    if kind == "request_flood":
        return RequestFloodAttacker(sim, node, rng, **kwargs)
    if kind == "gossip_flood":
        return GossipFloodAttacker(sim, node, rng, **kwargs)
    raise ValueError(
        f"unknown attacker kind {kind!r}; choose from {ATTACKER_KINDS}")


def make_behavior(kind: str, rng: Optional[RandomStream] = None,
                  **kwargs) -> Optional[NodeBehavior]:
    """Build a behaviour object from a scenario string.

    Returns None for ``"correct"`` (the node keeps the default behaviour).
    """
    kind = kind.lower()
    if kind == "correct":
        return None
    if kind == "mute":
        return MuteBehavior(**kwargs)
    if kind == "selective_drop":
        if rng is None:
            raise ValueError("selective_drop requires an rng")
        return SelectiveDropBehavior(rng, **kwargs)
    if kind == "limited_send":
        return LimitedSendBehavior(**kwargs)
    if kind == "forging":
        if rng is None:
            raise ValueError("forging requires an rng")
        return ForgingBehavior(rng, **kwargs)
    if kind == "impersonation":
        if "victim_id" not in kwargs:
            raise ValueError("impersonation requires a victim_id")
        return ImpersonationBehavior(**kwargs)
    if kind == "gossip_liar":
        return GossipLiarBehavior()
    if kind == "deaf":
        return DeafBehavior()
    raise ValueError(
        f"unknown behaviour kind {kind!r}; choose from {BEHAVIOR_KINDS}")
