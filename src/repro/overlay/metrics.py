"""Global (omniscient) overlay quality metrics.

These are *evaluation-only* helpers — no protocol code may use them.  They
measure the properties the paper's correctness argument needs from the
overlay (Lemmas 3.5 / 3.9):

* the correct overlay members form a connected graph, and
* every correct node is an overlay member or within transmission range of
  a correct overlay member (coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

import networkx as nx

from ..radio.geometry import Position

__all__ = ["OverlayQuality", "evaluate_overlay"]


@dataclass(frozen=True)
class OverlayQuality:
    """A snapshot of overlay health."""

    overlay_size: int
    correct_overlay_size: int
    coverage: float                 # fraction of correct nodes covered
    correct_overlay_connected: bool
    overlay_fraction: float         # overlay size / n

    @property
    def healthy(self) -> bool:
        """The Lemma 3.5/3.9 property: connected and fully covering."""
        return self.correct_overlay_connected and self.coverage >= 1.0


def evaluate_overlay(positions: Dict[int, Position], tx_range: float,
                     overlay_members: Set[int],
                     correct_nodes: Set[int]) -> OverlayQuality:
    """Evaluate an overlay snapshot against the paper's health criteria.

    ``positions`` maps node id to position; ``overlay_members`` are the
    nodes currently considering themselves active; ``correct_nodes`` is the
    ground-truth non-Byzantine set.
    """
    n = len(positions)
    if n == 0:
        raise ValueError("no nodes to evaluate")
    correct_overlay = overlay_members & correct_nodes

    covered = 0
    for node in correct_nodes:
        if node in overlay_members:
            covered += 1
            continue
        pos = positions[node]
        if any(pos.within(positions[member], tx_range)
               for member in correct_overlay):
            covered += 1
    coverage = covered / len(correct_nodes) if correct_nodes else 1.0

    graph = nx.Graph()
    graph.add_nodes_from(correct_overlay)
    members = sorted(correct_overlay)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if positions[a].within(positions[b], tx_range):
                graph.add_edge(a, b)
    if graph.number_of_nodes() <= 1:
        connected = True
    else:
        connected = nx.is_connected(graph)

    return OverlayQuality(
        overlay_size=len(overlay_members),
        correct_overlay_size=len(correct_overlay),
        coverage=coverage,
        correct_overlay_connected=connected,
        overlay_fraction=len(overlay_members) / n,
    )
