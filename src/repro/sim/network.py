"""Fluent builder for hand-crafted simulated networks.

``run_experiment`` covers scenario-driven evaluation; this builder covers
the other common need — placing specific nodes at specific coordinates
with specific behaviours, and getting back live handles to everything
(nodes, medium, energy meter).  Used by examples and integration
tests; the paper-style topologies (line, diamond, grid) ship as
constructors.  A built network is observed like every other run, with
an ``obs.session`` around it plus the nodes' own listener hooks (see
docs/OBSERVABILITY.md, "Observing a hand-built network").

Usage::

    net = (NetworkBuilder(seed=7)
           .line(5, spacing=80.0)
           .with_behavior(2, MuteBehavior())
           .with_energy()
           .build())
    net.warm_up(8.0)
    msg_id = net.nodes[0].broadcast(b"hello")
    net.run(20.0)
    assert net.delivered_to_all(msg_id, exclude={2})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.messages import MessageId
from ..core.node import NetworkNode, NodeStackConfig
from ..core.protocol import NodeBehavior
from ..crypto.keystore import HmacScheme, KeyDirectory, SignatureScheme
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..radio.energy import EnergyModel
from ..radio.geometry import Position
from ..radio.medium import Medium
from ..radio.propagation import PropagationModel
from ..radio.vectorized import VectorizedMedium

__all__ = ["NetworkBuilder", "Network"]


@dataclass
class Network:
    """A built, started network with live handles."""

    sim: Simulator
    medium: Medium
    nodes: List[NetworkNode]
    directory: KeyDirectory
    energy: Optional[EnergyModel] = None

    def node(self, node_id: int) -> NetworkNode:
        return self.nodes[node_id]

    def warm_up(self, seconds: float = 8.0) -> "Network":
        """Let hellos flow and the overlay converge."""
        self.sim.run(until=self.sim.now + seconds)
        return self

    def run(self, seconds: float) -> "Network":
        self.sim.run(until=self.sim.now + seconds)
        return self

    def overlay_members(self) -> Set[int]:
        return {n.node_id for n in self.nodes if n.overlay.in_overlay}

    def delivered_to(self, msg_id: MessageId) -> Set[int]:
        return {n.node_id for n in self.nodes
                if any(rec[2] == msg_id for rec in n.accepted)}

    def delivered_to_all(self, msg_id: MessageId,
                         exclude: Set[int] = frozenset()) -> bool:
        expected = {n.node_id for n in self.nodes} \
            - {msg_id.originator} - set(exclude)
        return expected <= self.delivered_to(msg_id)

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()


class NetworkBuilder:
    """Accumulates placement and options, then builds a live network."""

    def __init__(self, seed: int = 1,
                 stack: Optional[NodeStackConfig] = None,
                 tx_range: float = 100.0):
        self._seed = seed
        self._stack = stack or NodeStackConfig()
        self._tx_range = tx_range
        self._coords: List[Tuple[float, float]] = []
        self._behaviors: Dict[int, NodeBehavior] = {}
        self._scheme: Optional[SignatureScheme] = None
        self._propagation: Optional[PropagationModel] = None
        self._bitrate = 1_000_000.0
        self._want_energy = False

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def at(self, x: float, y: float) -> "NetworkBuilder":
        """Append one node at (x, y); ids follow insertion order."""
        self._coords.append((x, y))
        return self

    def positions(self, coords: Sequence[Tuple[float, float]]
                  ) -> "NetworkBuilder":
        self._coords.extend(tuple(c) for c in coords)
        return self

    def line(self, count: int, spacing: float = 80.0) -> "NetworkBuilder":
        return self.positions([(i * spacing, 0.0) for i in range(count)])

    def diamond(self, width: float = 160.0,
                height: float = 60.0) -> "NetworkBuilder":
        """The 4-node diamond used throughout the examples: ids 0 and 3
        are the far ends, 1 and 2 the two arms."""
        return self.positions([(0.0, 0.0), (width / 2, height / 2),
                               (width / 2, -height / 2), (width, 0.0)])

    def grid(self, columns: int, rows: int,
             spacing: float = 70.0) -> "NetworkBuilder":
        return self.positions([(c * spacing, r * spacing)
                               for r in range(rows)
                               for c in range(columns)])

    # ------------------------------------------------------------------
    # Options
    # ------------------------------------------------------------------
    def with_behavior(self, node_id: int,
                      behavior: NodeBehavior) -> "NetworkBuilder":
        self._behaviors[node_id] = behavior
        return self

    def with_scheme(self, scheme: SignatureScheme) -> "NetworkBuilder":
        self._scheme = scheme
        return self

    def with_propagation(self,
                         model: PropagationModel) -> "NetworkBuilder":
        self._propagation = model
        return self

    def with_bitrate(self, bitrate_bps: float) -> "NetworkBuilder":
        self._bitrate = bitrate_bps
        return self

    def with_energy(self) -> "NetworkBuilder":
        self._want_energy = True
        return self

    # ------------------------------------------------------------------
    def build(self, start: bool = True) -> Network:
        if len(self._coords) < 2:
            raise ValueError("place at least two nodes before build()")
        for node_id in self._behaviors:
            if not 0 <= node_id < len(self._coords):
                raise ValueError(f"behavior for unknown node {node_id}")
        sim = Simulator()
        streams = StreamFactory(self._seed)
        medium = VectorizedMedium(sim, streams.stream("medium"),
                                  self._propagation,
                                  bitrate_bps=self._bitrate)
        scheme = self._scheme or HmacScheme(
            seed=str(self._seed).encode())
        directory = KeyDirectory(scheme)
        energy = EnergyModel(sim, medium) if self._want_energy else None
        nodes = []
        for node_id, (x, y) in enumerate(self._coords):
            node = NetworkNode(sim, medium, node_id, Position(x, y),
                               self._tx_range, streams, directory,
                               self._stack,
                               behavior=self._behaviors.get(node_id))
            nodes.append(node)
        if start:
            for node in nodes:
                node.start()
        return Network(sim=sim, medium=medium, nodes=nodes,
                       directory=directory, energy=energy)
