"""The f+1 node-independent overlays baseline.

The prior approach the paper positions itself against: "maintain f+1 node
independent overlays, where f is the assumed maximal number of Byzantine
devices, and flood each message along each of these overlays ... the price
paid by this approach is that every message has to be sent f+1 times even
if in practice none of the devices suffered from a Byzantine fault."

Overlays are constructed centrally (an omniscient setup is the *generous*
interpretation of this baseline — distributed construction would only cost
it more), greedily maximizing node-disjointness: each successive overlay is
a connected dominating set drawn from previously unused nodes, falling back
to reuse only when the remaining nodes cannot dominate the graph.  Each
message is flooded once per overlay as an independently-tagged copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.messages import DataMessage, MessageId
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = [
    "TaggedData",
    "greedy_connected_dominating_set",
    "build_independent_overlays",
    "correct_component",
    "MultiOverlayNode",
]

_TAG_BYTES = 2  # the overlay tag on top of the DATA header


@dataclass(frozen=True)
class TaggedData:
    """A DATA copy bound to one overlay."""

    message: DataMessage
    overlay_index: int


Adjacency = Dict[int, List[int]]


def greedy_connected_dominating_set(adjacency: Adjacency,
                                    allowed: Set[int]) -> Optional[Set[int]]:
    """A connected dominating set of the graph ``adjacency`` (as
    :func:`repro.mobility.connectivity_graph` returns it) using only
    ``allowed`` nodes.

    Returns None when ``allowed`` cannot dominate the graph or cannot be
    connected.  Greedy max-coverage followed by shortest-path stitching.
    """
    nodes = set(adjacency)
    if not nodes:
        return set()
    candidates = set(allowed) & nodes
    uncovered = set(nodes)
    chosen: Set[int] = set()
    while uncovered:
        best, best_gain = None, -1
        for candidate in candidates - chosen:
            gain = len((set(adjacency[candidate]) | {candidate}) & uncovered)
            if gain > best_gain or (gain == best_gain and best is not None
                                    and candidate < best):
                best, best_gain = candidate, gain
        if best is None or best_gain <= 0:
            return None  # allowed nodes cannot dominate the rest
        chosen.add(best)
        uncovered -= set(adjacency[best]) | {best}
    # Stitch components together inside the allowed subgraph: each round
    # joins the first component the base component reaches.
    while True:
        components = _components(adjacency, chosen)
        if len(components) <= 1:
            break
        base = components[0]
        # One search per base source serves every other component
        # (``chosen`` only holds candidates, so each source is inside).
        searches = [_shortest_paths(adjacency, candidates, source)
                    for source in base]
        for other in components[1:]:
            path = _shortest_path_between(searches, other)
            if path is not None:
                chosen.update(path)
                break
        else:
            return None  # allowed subgraph cannot connect the CDS
    return chosen


# Stitching iterates the component sets, and the first strictly shorter
# path wins a tie, so the chosen overlays depend on the order of the
# search below.  It keeps the order the overlays have always been built
# with (tests/test_graph_oracle.py holds the reference): one
# breadth-first search, level by level, neighbours in adjacency order,
# first discovery wins, and each set grown one node at a time in
# discovery order.

def _components(adjacency: Adjacency, nodes: Iterable[int]) -> List[Set[int]]:
    """The connected components of the subgraph induced by ``nodes``."""
    members = {node for node in nodes}
    # Components start from the node set's own order when it holds under
    # half the graph, else from the graph's order.
    starts = (members if 2 * len(members) < len(adjacency)
              else [node for node in adjacency if node in members])
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for start in starts:
        if start not in seen:
            component = {node for node in
                         _shortest_paths(adjacency, members, start)}
            seen |= component
            components.append(component)
    return components


def _shortest_paths(adjacency: Adjacency, within: Set[int],
                    source: int) -> Dict[int, List[int]]:
    """A shortest path from ``source`` to every node it reaches through
    ``within``."""
    paths = {source: [source]}
    level = [source]
    while level:
        following = []
        for node in level:
            for neighbour in adjacency[node]:
                if neighbour in within and neighbour not in paths:
                    paths[neighbour] = paths[node] + [neighbour]
                    following.append(neighbour)
        level = following
    return paths


def _shortest_path_between(searches: List[Dict[int, List[int]]],
                           targets: Set[int]) -> Optional[List[int]]:
    """The shortest path to ``targets`` among ``searches`` (one
    :func:`_shortest_paths` result per source): the first strictly
    shorter path wins, scanning sources then targets in order."""
    best: Optional[List[int]] = None
    for paths in searches:
        for target in targets:
            path = paths.get(target)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
    return best


def build_independent_overlays(adjacency: Adjacency,
                               count: int) -> List[Set[int]]:
    """``count`` connected dominating sets, node-disjoint where possible.

    When the residual nodes can no longer dominate the graph, the overlay
    falls back to drawing from all nodes (documented deviation: perfectly
    node-independent overlays do not always exist; the baseline's *cost*
    — one flood per overlay — is preserved either way).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    overlays: List[Set[int]] = []
    used: Set[int] = set()
    all_nodes = set(adjacency)
    for _ in range(count):
        overlay = greedy_connected_dominating_set(adjacency, all_nodes - used)
        if overlay is None:
            overlay = greedy_connected_dominating_set(adjacency, all_nodes)
        if overlay is None:
            raise RuntimeError("graph admits no connected dominating set")
        overlays.append(overlay)
        used |= overlay
    return overlays


def correct_component(adjacency: Adjacency,
                      faulty: Iterable[int]) -> Adjacency:
    """The part of ``adjacency`` the overlays are built over: the
    connected component that holds the correct nodes (placement keeps
    them connected, so the lowest correct id's component holds them
    all).  A faulty node out of every correct node's reach is left out —
    it hears none of the overlays' traffic, and with it in the graph no
    connected dominating set exists.  A connected graph comes back as
    it is."""
    faulty = set(faulty)
    source = next((node for node in adjacency if node not in faulty), None)
    if source is None:
        return adjacency
    reach = _shortest_paths(adjacency, set(adjacency), source)
    if len(reach) == len(adjacency):
        return adjacency
    return {node: neighbours for node, neighbours in adjacency.items()
            if node in reach}


class MultiOverlayNode(ArenaNode):
    """A node participating in f+1 tagged overlay floods."""

    def __init__(self, *args, overlay_memberships: Sequence[bool], **kwargs):
        super().__init__(*args, **kwargs)
        self._memberships = tuple(overlay_memberships)
        #: Copies are deduplicated per (message, overlay) so each overlay
        #: floods independently; delivery stays per message (the base
        #: class's ``_delivered``).
        self._seen_copies: Set[Tuple[MessageId, int]] = set()

    @property
    def overlay_count(self) -> int:
        return len(self._memberships)

    def _reset_protocol_state(self) -> None:
        super()._reset_protocol_state()
        self._seen_copies = set()

    # ------------------------------------------------------------------
    def _on_broadcast(self, message: DataMessage) -> None:
        """Flood one copy of the message along every overlay."""
        for index in range(self.overlay_count):
            self._seen_copies.add((message.msg_id, index))
            self._transmit(TaggedData(message=message, overlay_index=index))

    def _on_message(self, packet: Packet) -> None:
        tagged = packet.payload
        if not isinstance(tagged, TaggedData):
            return
        message = tagged.message
        key = (message.msg_id, tagged.overlay_index)
        if key in self._seen_copies:
            return
        if not message.verify(self.directory):
            return
        self._seen_copies.add(key)
        if message.msg_id not in self._delivered:
            self._deliver(message, packet.sender)
        if (0 <= tagged.overlay_index < len(self._memberships)
                and self._memberships[tagged.overlay_index]):
            self._transmit(tagged)

    def _transmit(self, tagged: TaggedData) -> None:
        self._send_data(tagged.message, wire=tagged, extra_bytes=_TAG_BYTES)

    def _rewrap(self, wire: TaggedData, message: DataMessage) -> TaggedData:
        return TaggedData(message=message, overlay_index=wire.overlay_index)
