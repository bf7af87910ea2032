"""``multi_overlay`` builds its overlays over the correct nodes' component.

Placement keeps only the correct nodes connected, so a Byzantine node can
land out of everyone's reach.  The whole graph then has no connected
dominating set; the overlays are built over the component that holds the
correct nodes instead, and the unreachable node belongs to none of them.
"""

import random

import pytest

from repro.arena.multi_overlay import build_independent_overlays, \
    correct_component
from repro.mobility import connectivity_graph
from repro.sim import build_world, finish_world
from repro.workloads.scenarios import AdversaryMix

from .conftest import arena_config

pytestmark = pytest.mark.arena


def random_graph(n, radius, seed):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    return {i: [j for j in range(n) if j != i
                and (points[i][0] - points[j][0]) ** 2
                + (points[i][1] - points[j][1]) ** 2 < radius ** 2]
            for i in range(n)}


def test_unreachable_byzantine_node_gets_no_membership():
    # Seed 69 places mute node 11 out of every other node's range.
    config = arena_config("multi_overlay", seed=69,
                          adversaries=AdversaryMix.mute(1))
    world = build_world(config)
    assert dict(world.assignment) == {11: "mute"}
    graph = connectivity_graph([node.position for node in world.nodes],
                               config.scenario.tx_range)
    assert graph[11] == []
    result = finish_world(world)
    assert result.delivery_ratio == 1.0
    assert world.nodes[11]._memberships == (False, False)
    overlays = [{node.node_id for node in world.nodes
                 if node._memberships[k]} for k in range(2)]
    assert overlays == build_independent_overlays(
        {i: graph[i] for i in range(11)}, 2)


@pytest.mark.parametrize("seed", range(40))
def test_connected_graph_comes_back_as_is(seed):
    graph = random_graph(14, 0.45, seed)
    faulty = {13}
    component = correct_component(graph, faulty)
    reach = set(component)
    assert 0 in reach
    assert all(set(graph[node]) <= reach for node in reach)
    if len(reach) == len(graph):
        assert component is graph
    else:
        assert list(component) == [node for node in graph if node in reach]
        assert all(component[node] is graph[node] for node in component)


def test_isolated_faulty_node_is_left_out():
    graph = {0: [1], 1: [0, 2], 2: [1], 3: []}
    with pytest.raises(RuntimeError):
        build_independent_overlays(graph, 2)
    component = correct_component(graph, {3})
    assert component == {0: [1], 1: [0, 2], 2: [1]}
    assert build_independent_overlays(component, 2) == [{1}, {1}]


def test_all_faulty_graph_comes_back_as_is():
    graph = {0: [], 1: []}
    assert correct_component(graph, {0, 1}) is graph
