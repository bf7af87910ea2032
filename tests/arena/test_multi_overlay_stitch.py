"""Connected-dominating-set stitching searches once per base source.

Each stitch round finds the components of the chosen set, then joins
the base component to the first other component it reaches.  One
breadth-first search per base source serves every other component of
the round; ``tests/test_graph_oracle.py`` pins the sets it chooses.
"""

import random

import pytest

from repro.arena import multi_overlay
from repro.arena.multi_overlay import greedy_connected_dominating_set


def path_graph(n):
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}


def random_graph(n, radius, seed):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    return {i: [j for j in range(n) if j != i
                and (points[i][0] - points[j][0]) ** 2
                + (points[i][1] - points[j][1]) ** 2 < radius ** 2]
            for i in range(n)}


@pytest.fixture
def rounds(monkeypatch):
    """Per stitch round: ``[base size, searches outside _components]``."""
    log = []
    inside = []
    components = multi_overlay._components
    shortest_paths = multi_overlay._shortest_paths

    def counting_components(adjacency, nodes):
        inside.append(True)
        try:
            result = components(adjacency, nodes)
        finally:
            inside.pop()
        log.append([len(result[0]) if result else 0, 0])
        return result

    def counting_paths(adjacency, within, source):
        if not inside:
            log[-1][1] += 1
        return shortest_paths(adjacency, within, source)

    monkeypatch.setattr(multi_overlay, "_components", counting_components)
    monkeypatch.setattr(multi_overlay, "_shortest_paths", counting_paths)
    return log


def is_connected_dominating(adjacency, chosen):
    dominated = set(chosen).union(*(adjacency[v] for v in chosen))
    if dominated != set(adjacency):
        return False
    start = next(iter(chosen))
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for v in frontier for w in adjacency[v]
                    if w in chosen and w not in seen and not seen.add(w)]
    return seen == set(chosen)


def test_path_graph_stitches_in_several_rounds(rounds):
    adjacency = path_graph(15)
    chosen = greedy_connected_dominating_set(adjacency, set(adjacency))
    assert is_connected_dominating(adjacency, chosen)
    # {1, 4, 7, 10, 13} is five components: four joining rounds, then
    # the round that finds one component.
    assert len(rounds) == 5
    assert all(searches == base for base, searches in rounds[:-1])
    assert rounds[-1][1] == 0


@pytest.mark.parametrize("seed", range(12))
def test_at_most_one_search_per_base_source_per_round(rounds, seed):
    adjacency = random_graph(60, 0.2, seed)
    allowed = set(random.Random(seed).sample(sorted(adjacency), 45))
    for nodes in (allowed, set(adjacency)):
        del rounds[:]
        chosen = greedy_connected_dominating_set(adjacency, nodes)
        if chosen is not None:
            assert is_connected_dominating(adjacency, chosen)
        assert all(searches <= base for base, searches in rounds)
