"""Full node assembly: radio + failure detectors + overlay + protocol.

:class:`NetworkNode` wires every per-node component of Figure 1 (the node
architecture): the network/MAC layer, the FD interceptor (every received
packet feeds MUTE/VERBOSE via the protocol handlers), the overlay manager,
and the application-facing broadcast/accept interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.keystore import KeyDirectory
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..fd.mute import MuteConfig, MuteFailureDetector
from ..fd.trust import TrustConfig, TrustFailureDetector
from ..fd.verbose import VerboseConfig, VerboseFailureDetector
from ..overlay.cds import CdsRule
from ..overlay.manager import OverlayConfig, OverlayManager
from ..overlay.misb import MisBridgeRule
from ..overlay.state import ElectionRule
from ..radio.geometry import Position
from ..radio.mac import MacConfig
from ..radio.medium import Medium
from ..radio.neighbors import NeighborService
from ..radio.packet import Packet
from .config import ProtocolConfig
from .messages import MessageId
from .protocol import (
    ByzantineBroadcastProtocol,
    ManagerOverlayPort,
    NodeBehavior,
)
from .shell import NodeShell

__all__ = ["NodeStackConfig", "NetworkNode", "make_election_rule"]


def make_election_rule(name: str) -> ElectionRule:
    """Factory for the overlay election rules the paper implements."""
    rules = {"cds": CdsRule, "mis+b": MisBridgeRule, "misb": MisBridgeRule}
    try:
        return rules[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown overlay rule {name!r}; choose from {sorted(rules)}")


@dataclass(frozen=True)
class NodeStackConfig:
    """Every per-node tunable, with paper-faithful defaults."""

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    mute: MuteConfig = field(default_factory=MuteConfig)
    verbose: VerboseConfig = field(default_factory=VerboseConfig)
    trust: TrustConfig = field(default_factory=TrustConfig)
    overlay: OverlayConfig = field(default_factory=OverlayConfig)
    hello_period: float = 1.0
    overlay_rule: str = "cds"
    sign_hellos: bool = True


class NetworkNode(NodeShell):
    """A complete protocol node attached to a medium."""

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 position: Position, tx_range: float,
                 streams: StreamFactory, directory: KeyDirectory,
                 stack: Optional[NodeStackConfig] = None,
                 behavior: Optional[NodeBehavior] = None):
        stack = stack or NodeStackConfig()
        super().__init__(sim, medium, node_id, position, tx_range, streams,
                         directory, stack.mac)
        hello_auth = {}
        if stack.sign_hellos:
            hello_auth = {"signer": self.signer, "directory": directory}
        self.neighbors = NeighborService(
            sim, self.radio, streams.stream(f"hello:{node_id}"),
            hello_period=stack.hello_period, **hello_auth)
        self.mute = MuteFailureDetector(sim, stack.mute, owner=node_id)
        self.verbose = VerboseFailureDetector(sim, stack.verbose,
                                              owner=node_id)
        self.trust = TrustFailureDetector(sim, self.mute, self.verbose,
                                          stack.trust)
        self.overlay = OverlayManager(
            sim, node_id, self.neighbors, self.trust,
            make_election_rule(stack.overlay_rule),
            streams.stream(f"overlay:{node_id}"), stack.overlay)
        # The protocol verifies through this node's own caching view of
        # the shared directory (per-node verified-signature LRU).  Hello
        # beacons keep the plain directory: every (sender, seq) beacon is
        # unique, so caching them would only add eviction pressure.  What
        # a beacon's receivers do share is its signed *bytes*, memoized
        # on the message; each still verifies for itself.
        proto_directory = directory
        if stack.protocol.verify_cache_size > 0:
            proto_directory = directory.caching_view(
                stack.protocol.verify_cache_size, owner=node_id)
        self.protocol = ByzantineBroadcastProtocol(
            sim, node_id, self.radio, proto_directory, self.signer,
            self.mute, self.verbose, self.trust,
            ManagerOverlayPort(self.overlay),
            self.neighbors.neighbors,
            streams.stream(f"proto:{node_id}"),
            stack.protocol, behavior, self._on_accept)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """End of run: also stop the failure detectors.  ``crash`` does
        not — deadlines armed before a crash still expire, and a
        state-wiping restart resets the detectors instead."""
        super().stop()
        self.mute.stop()
        self.verbose.stop()
        self.trust.stop()

    def broadcast(self, payload: bytes) -> MessageId:
        """Application-level broadcast(p, m)."""
        return self.protocol.broadcast(payload)

    def set_behavior(self, behavior: Optional[NodeBehavior]) -> None:
        """Swap the node's behaviour policy mid-run (``None`` → correct).

        Everything else — pending timers, in-flight transmissions, the
        message store, failure-detector suspicion state — stays intact.
        """
        self.protocol.set_behavior(behavior)

    # ------------------------------------------------------------------
    # NodeShell hooks
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self.neighbors.handle_packet(packet):
            return
        self.protocol.handle_packet(packet)

    def _start_protocol(self) -> None:
        self.neighbors.start()
        self.overlay.start()
        self.protocol.start()

    def _stop_protocol(self) -> None:
        self.protocol.stop()
        self.overlay.stop()
        self.neighbors.stop()

    def _reset_protocol_state(self) -> None:
        """The message store, recovery bookkeeping and failure-detector
        counters go; the protocol keeps its sequence counter."""
        self.protocol.reset_state()
        self.mute.reset()
        self.verbose.reset()
        self.trust.reset()
