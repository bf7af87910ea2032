"""Unit and property tests for the CDS and MIS+B election rules.

The rules run on :class:`LocalView` snapshots.  The ``elect`` helper
simulates rounds of perfect state exchange over a known graph until the
statuses stabilize — the fixpoint the distributed protocol converges to
under reliable HELLOs.  Graphs are adjacency dicts, the shape
:func:`repro.mobility.connectivity_graph` returns; networkx draws the
random ones and checks connectivity.
"""

from typing import Dict, List, Set

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.cds import CdsRule
from repro.overlay.misb import MisBridgeRule
from repro.overlay.state import LocalView, NodeStatus

from tests.helpers import complete_adjacency, path_adjacency

Adjacency = Dict[int, List[int]]


def make_view(node_id, graph: Adjacency, statuses: Dict[int, NodeStatus],
              mis: Dict[int, bool], trusted: Set[int] = None) -> LocalView:
    neighbors = set(graph[node_id]) if node_id in graph else set()
    if trusted is not None:
        neighbors &= trusted
    visible = {
        n: (frozenset(graph[n]) if trusted is None
            else frozenset(set(graph[n]) & (trusted | {node_id})))
        for n in neighbors
    }
    return LocalView(
        node_id=node_id,
        trusted_neighbors=frozenset(neighbors),
        neighbor_neighbors=visible,
        neighbor_status={n: statuses.get(n, NodeStatus.PASSIVE)
                         for n in neighbors},
        neighbor_mis={n: mis.get(n, False) for n in neighbors},
        neighbor_mis_neighbors={
            n: frozenset(m for m in graph[n] if mis.get(m, False))
            for n in neighbors},
    )


def elect(rule, graph: Adjacency, trusted_map: Dict[int, Set[int]] = None,
          rounds: int = None) -> Set[int]:
    """Iterate election rounds until statuses stabilize."""
    statuses = {n: NodeStatus.PASSIVE for n in graph}
    mis = {n: False for n in graph}
    rounds = rounds or (2 * len(graph) + 4)
    for _ in range(rounds):
        new_statuses, new_mis = {}, {}
        for node in graph:
            trusted = None if trusted_map is None else trusted_map.get(node)
            view = make_view(node, graph, statuses, mis, trusted)
            new_mis[node] = rule.mis_member(view)
            new_statuses[node] = rule.decide(view)
        if new_statuses == statuses and new_mis == mis:
            break
        statuses, mis = new_statuses, new_mis
    return {n for n, s in statuses.items() if s is NodeStatus.ACTIVE}


def dominates(graph, members) -> bool:
    return all(n in members or any(m in members for m in graph[n])
               for n in graph)


def induced_connected(graph: Adjacency, members) -> bool:
    """The networkx oracle: ``members`` induce a connected subgraph."""
    return nx.is_connected(nx.Graph(graph).subgraph(members))


@pytest.fixture(params=["cds", "misb"])
def rule(request):
    return CdsRule() if request.param == "cds" else MisBridgeRule()


class TestDegenerateCases:
    def test_isolated_node_active(self, rule):
        graph = {0: []}
        assert elect(rule, graph) == {0}

    def test_pair_elects_someone(self, rule):
        graph = path_adjacency(2)
        members = elect(rule, graph)
        assert members
        assert dominates(graph, members)

    def test_triangle_elects_highest_only(self):
        graph = complete_adjacency(3)
        assert elect(CdsRule(), graph) == {2}

    def test_clique_elects_single_highest(self, rule):
        graph = complete_adjacency(6)
        members = elect(rule, graph)
        assert 5 in members
        assert dominates(graph, members)


class TestPathGraphs:
    def test_path_interior_covered(self, rule):
        graph = path_adjacency(5)  # 0-1-2-3-4
        members = elect(rule, graph)
        assert dominates(graph, members)

    def test_cds_path_connected(self):
        graph = path_adjacency(7)
        members = elect(CdsRule(), graph)
        assert dominates(graph, members)
        assert induced_connected(graph, members)

    def test_star_elects_center_or_covers(self, rule):
        graph = {0: [1, 2, 3, 4, 5, 6],  # center 0
                 **{leaf: [0] for leaf in range(1, 7)}}
        members = elect(rule, graph)
        assert dominates(graph, members)


class TestTrustExclusion:
    def test_untrusted_hub_routed_around(self):
        # 0-1-2 path where the middle node 1 is untrusted by both ends:
        # ends must not rely on 1 for coverage.
        graph = path_adjacency(3)
        trusted_map = {0: {2}, 1: {0, 2}, 2: {0}}  # 1 distrusted by 0 and 2
        members = elect(CdsRule(), graph, trusted_map)
        # 0 and 2 see no trusted neighbors covering them: both self-elect.
        assert 0 in members and 2 in members

    def test_all_trusted_baseline(self):
        graph = path_adjacency(3)
        members = elect(CdsRule(), graph)
        assert 1 in members  # middle node connects the two ends


class TestMisProperties:
    def test_mis_is_independent(self):
        rule = MisBridgeRule()
        graph = nx.to_dict_of_lists(nx.erdos_renyi_graph(20, 0.2, seed=4))
        statuses = {n: NodeStatus.PASSIVE for n in graph}
        mis = {n: False for n in graph}
        for _ in range(40):
            new_mis = {}
            for node in graph:
                view = make_view(node, graph, statuses, mis)
                new_mis[node] = rule.mis_member(view)
            if new_mis == mis:
                break
            mis = new_mis
        members = {n for n, flag in mis.items() if flag}
        for a in members:
            assert not any(b in members for b in graph[a])

    def test_mis_is_maximal(self):
        rule = MisBridgeRule()
        graph = nx.to_dict_of_lists(nx.erdos_renyi_graph(15, 0.3, seed=5))
        elect(rule, graph)  # convergence sanity only
        # maximality: every node is in MIS or adjacent to MIS after fixpoint
        statuses = {n: NodeStatus.PASSIVE for n in graph}
        mis = {n: False for n in graph}
        for _ in range(40):
            new_mis = {
                node: rule.mis_member(make_view(node, graph, statuses, mis))
                for node in graph}
            if new_mis == mis:
                break
            mis = new_mis
        members = {n for n, flag in mis.items() if flag}
        assert dominates(graph, members)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_election_dominates_random_graphs(seed):
    graph = nx.to_dict_of_lists(
        nx.connected_watts_strogatz_graph(12, 4, 0.4, seed=seed))
    for rule in (CdsRule(), MisBridgeRule()):
        members = elect(rule, graph)
        assert members, f"{rule.name} elected nobody"
        assert dominates(graph, members), \
            f"{rule.name} overlay does not dominate (seed={seed})"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_cds_connected_random_graphs(seed):
    graph = nx.to_dict_of_lists(
        nx.connected_watts_strogatz_graph(12, 4, 0.4, seed=seed))
    members = elect(CdsRule(), graph)
    if len(members) > 1:
        assert induced_connected(graph, members), \
            f"CDS overlay disconnected (seed={seed})"
