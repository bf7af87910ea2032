"""Overlay-only baseline: dissemination over a single overlay with no
gossip, no recovery, and no failure detectors.

This isolates the overlay's efficiency benefit from the Byzantine
machinery: in failure-free runs it is nearly as cheap as the full protocol
(minus gossip), but a single mute overlay node — or an unlucky collision —
permanently silences everything behind it, which is exactly the fragility
experiment E4 demonstrates.
"""

from __future__ import annotations

from typing import Optional

from ..core.messages import DataMessage
from ..core.node import make_election_rule
from ..core.protocol import NodeBehavior
from ..crypto.keystore import KeyDirectory
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..fd.trust import TrustFailureDetector
from ..overlay.manager import OverlayConfig, OverlayManager
from ..radio.geometry import Position
from ..radio.mac import MacConfig
from ..radio.medium import Medium
from ..radio.neighbors import NeighborService
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = ["OverlayOnlyNode"]


class OverlayOnlyNode(ArenaNode):
    """Overlay flooding without the paper's recovery machinery."""

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 position: Position, tx_range: float,
                 streams: StreamFactory, directory: KeyDirectory,
                 mac_config: Optional[MacConfig] = None,
                 overlay_rule: str = "cds",
                 hello_period: float = 1.0,
                 behavior: Optional[NodeBehavior] = None):
        super().__init__(sim, medium, node_id, position, tx_range, streams,
                         directory, mac_config, behavior)
        self.neighbors = NeighborService(
            sim, self.radio, streams.stream(f"hello:{node_id}"),
            hello_period=hello_period, signer=self.signer,
            directory=directory)
        # A trust detector with no MUTE/VERBOSE inputs: everyone stays
        # trusted, so the overlay election is purely structural.
        self.trust = TrustFailureDetector(sim)
        self.overlay = OverlayManager(
            sim, node_id, self.neighbors, self.trust,
            make_election_rule(overlay_rule),
            streams.stream(f"overlay:{node_id}"), OverlayConfig())

    def _start_protocol(self) -> None:
        self.neighbors.start()
        self.overlay.start()

    def _stop_protocol(self) -> None:
        self.overlay.stop()
        self.neighbors.stop()
        self.trust.stop()

    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        # HELLOs feed the neighbour table before the behaviour policy
        # sees anything, as in the paper's stack: a deaf node still
        # beacons and elects, it only ignores protocol traffic.
        if self.neighbors.handle_packet(packet):
            return
        super()._on_packet(packet)

    def _on_broadcast(self, message: DataMessage) -> None:
        self._send_data(message)

    def _on_message(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, DataMessage):
            return
        if message.msg_id in self._delivered:
            return
        if not message.verify(self.directory):
            return
        self._deliver(message, packet.sender)
        if self.overlay.in_overlay:
            self._send_data(message)
