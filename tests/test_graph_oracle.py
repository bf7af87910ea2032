"""The runtime's graph code against networkx, on random geometric graphs.

The oracles below are the networkx implementations the runtime used
before it dropped the dependency: a connected dominating set stitched
with ``connected_components`` and ``single_source_shortest_path`` over
subgraph views, and ``is_connected`` over the correct overlay members.
The BFS helpers must choose exactly the same overlays, since the
chosen sets decide which nodes forward in the multi-overlay baseline.
"""

import math
from typing import List, Optional, Set

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arena.multi_overlay import (
    build_independent_overlays,
    greedy_connected_dominating_set,
)
from repro.des.random import RandomStream
from repro.mobility.placement import (
    connected_uniform_positions,
    connectivity_graph,
)
from repro.overlay.metrics import evaluate_overlay
from repro.radio.geometry import Area, Position

TX_RANGE = 100.0


def oracle_cds(graph: nx.Graph, allowed: Set[int]) -> Optional[Set[int]]:
    nodes = set(graph.nodes)
    if not nodes:
        return set()
    candidates = set(allowed) & nodes
    uncovered = set(nodes)
    chosen: Set[int] = set()
    while uncovered:
        best, best_gain = None, -1
        for candidate in candidates - chosen:
            gain = len((set(graph[candidate]) | {candidate}) & uncovered)
            if gain > best_gain or (gain == best_gain and best is not None
                                    and candidate < best):
                best, best_gain = candidate, gain
        if best is None or best_gain <= 0:
            return None
        chosen.add(best)
        uncovered -= set(graph[best]) | {best}
    allowed_subgraph = graph.subgraph(candidates)
    while True:
        components = list(nx.connected_components(
            graph.subgraph(chosen))) if chosen else []
        if len(components) <= 1:
            break
        for other in components[1:]:
            path = oracle_path_between(allowed_subgraph, components[0],
                                       other)
            if path is not None:
                chosen.update(path)
                break
        else:
            return None
    return chosen


def oracle_path_between(graph: nx.Graph, sources: Set[int],
                        targets: Set[int]) -> Optional[List[int]]:
    best: Optional[List[int]] = None
    for source in sources:
        if source not in graph:
            return None
        paths = nx.single_source_shortest_path(graph, source)
        for target in targets:
            path = paths.get(target)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
    return best


def oracle_overlays(graph: nx.Graph, count: int) -> List[Set[int]]:
    overlays: List[Set[int]] = []
    used: Set[int] = set()
    for _ in range(count):
        overlay = oracle_cds(graph, set(graph.nodes) - used)
        if overlay is None:
            overlay = oracle_cds(graph, set(graph.nodes))
        if overlay is None:
            raise RuntimeError("graph admits no connected dominating set")
        overlays.append(overlay)
        used |= overlay
    return overlays


@st.composite
def fields(draw):
    """Up to 40 uniform points on a square field from dense to sparse."""
    side = draw(st.sampled_from([60.0, 150.0, 300.0, 600.0]))
    coordinate = st.floats(0.0, side)
    coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                           max_size=40))
    return [Position(x, y) for x, y in coords]


def node_subsets(n: int, min_size: int = 0):
    return st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n)


@settings(max_examples=120, deadline=None)
@given(fields(), st.data())
def test_dominating_sets_equal_networkx(positions, data):
    adjacency = connectivity_graph(positions, TX_RANGE)
    graph = nx.Graph(adjacency)
    allowed = data.draw(node_subsets(len(positions)))
    assert (greedy_connected_dominating_set(adjacency, allowed)
            == oracle_cds(graph, allowed))
    assert (greedy_connected_dominating_set(adjacency, set(adjacency))
            == oracle_cds(graph, set(graph)))


@settings(max_examples=120, deadline=None)
@given(fields(), st.integers(1, 4))
def test_independent_overlays_equal_networkx(positions, count):
    adjacency = connectivity_graph(positions, TX_RANGE)
    try:
        expected = oracle_overlays(nx.Graph(adjacency), count)
    except RuntimeError:
        expected = None
    try:
        overlays = build_independent_overlays(adjacency, count)
    except RuntimeError:
        overlays = None
    assert overlays == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(30, 90),
       st.sampled_from([5.0, 8.0, 12.0]))
@example(seed=32, n=62, degree=12.0)
@example(seed=43, n=73, degree=8.0)
def test_overlays_on_connected_placements_equal_networkx(seed, n, degree):
    # The placements the baseline is built on: large enough that which
    # component stitching starts from, and the order it walks each
    # component in, change the chosen overlays (both examples change
    # when either is walked in ascending id instead).
    side = math.sqrt(n * math.pi * TX_RANGE ** 2 / degree)
    positions = connected_uniform_positions(Area(side, side), n, TX_RANGE,
                                            RandomStream(seed))
    adjacency = connectivity_graph(positions, TX_RANGE)
    assert (build_independent_overlays(adjacency, 3)
            == oracle_overlays(nx.Graph(adjacency), 3))


@settings(max_examples=120, deadline=None)
@given(fields(), st.data())
def test_overlay_connected_verdict_equals_networkx(positions, data):
    n = len(positions)
    members = data.draw(node_subsets(n))
    correct = data.draw(node_subsets(n, min_size=1))
    quality = evaluate_overlay(dict(enumerate(positions)), TX_RANGE,
                               members, correct)
    induced = nx.Graph(connectivity_graph(positions, TX_RANGE)).subgraph(
        members & correct)
    expected = len(induced) <= 1 or nx.is_connected(induced)
    assert quality.correct_overlay_connected == expected
