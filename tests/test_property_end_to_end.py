"""Property-based end-to-end tests: random small topologies and adversary
placements must never break validity, and must deliver whenever the
correct nodes stay connected (the paper's §2.1 precondition)."""

import math
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.placement import connectivity_graph
from repro.radio.geometry import Position
from repro.sim import ExperimentConfig, build_world, finish_world
from repro.workloads import AdversaryMix, BroadcastEvent, ScenarioConfig

TX_RANGE = 100.0


def random_coords(seed_int, n):
    """Deterministic pseudo-random connected-ish coordinates."""
    rng = random.Random(seed_int)
    coords = [(0.0, 0.0)]
    while len(coords) < n:
        # Attach each node near an existing one → connected by construction.
        base = rng.choice(coords)
        angle = rng.uniform(0, 6.283)
        dist = rng.uniform(30.0, 85.0)
        coords.append((base[0] + dist * math.cos(angle),
                       base[1] + dist * math.sin(angle)))
    return coords


@st.composite
def faulty_worlds(draw):
    """``(seed_int, n, mute ids)``: the highest ids (the worst case for
    id-based overlay election) or any set that spares the source 0."""
    seed_int = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=4, max_value=7))
    count = draw(st.integers(min_value=1, max_value=2))
    mute = draw(st.one_of(
        st.just(tuple(range(n - 1, n - 1 - count, -1))),
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=count,
                 max_size=count, unique=True).map(tuple)))
    return seed_int, n, mute


def run_world(seed, coords, mute, workload, drain):
    """Build the given points with the given mute ids through
    ``build_world``, run the workload, and return the world's nodes."""
    world = build_world(ExperimentConfig(
        scenario=ScenarioConfig(
            n=len(coords), seed=seed, tx_range=TX_RANGE,
            placement=tuple(coords),
            adversaries=AdversaryMix.mute(len(mute), placement=mute)),
        workload=workload, drain=drain))
    finish_world(world)
    return world.nodes


@settings(max_examples=6, deadline=None)
@given(faulty_worlds())
def test_property_delivery_when_correct_connected(world):
    seed_int, n, mute = world
    coords = random_coords(seed_int, n)
    positions = [Position(*c) for c in coords]
    correct = set(range(n)) - set(mute)
    # networkx is the oracle for the paper's precondition.
    sub = nx.Graph(connectivity_graph(positions, TX_RANGE)).subgraph(correct)
    correct_connected = sub.number_of_nodes() <= 1 or nx.is_connected(sub)

    nodes = run_world(seed_int % 97 + 1, coords, mute,
                      (BroadcastEvent(time=0.0, source=0),), drain=35.0)

    delivered = {node.node_id for node in nodes if node.accepted}
    # Validity: every accept references the true originator and payload.
    for node in nodes:
        for _, originator, mid in node.accepted:
            assert originator == mid.originator

    if correct_connected:
        # The paper's precondition holds → eventual dissemination must.
        missing = correct - delivered - {0}
        assert not missing, (
            f"correct nodes {sorted(missing)} missed the message "
            f"(seed={seed_int}, n={n}, mute={sorted(mute)})")
    else:
        # Disconnected correct subgraph: only reachable nodes can receive.
        reachable = nx.node_connected_component(sub, 0) if 0 in sub else {0}
        assert delivered & correct <= set(reachable) | {0}


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_accept_at_most_once_everywhere(seed_int):
    coords = random_coords(seed_int, 5)
    burst = (BroadcastEvent(time=0.0, source=0),) * 3
    for node in run_world(seed_int % 89 + 1, coords, (), burst, drain=25.0):
        seen = [rec[2] for rec in node.accepted]
        assert len(seen) == len(set(seen)), \
            f"node {node.node_id} accepted a duplicate (seed={seed_int})"
