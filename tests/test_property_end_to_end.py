"""Property-based end-to-end tests: random small topologies and adversary
placements must never break validity, and must deliver whenever the
correct nodes stay connected (the paper's §2.1 precondition)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import MuteBehavior
from repro.mobility.placement import connectivity_graph
from repro.radio.geometry import Position
from repro.sim.network import NetworkBuilder

TX_RANGE = 100.0


def random_coords(seed_int, n):
    """Deterministic pseudo-random connected-ish coordinates."""
    import random
    rng = random.Random(seed_int)
    coords = [(0.0, 0.0)]
    while len(coords) < n:
        # Attach each node near an existing one → connected by construction.
        base = rng.choice(coords)
        angle = rng.uniform(0, 6.283)
        dist = rng.uniform(30.0, 85.0)
        import math
        coords.append((base[0] + dist * math.cos(angle),
                       base[1] + dist * math.sin(angle)))
    return coords


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=4, max_value=7),
       st.integers(min_value=1, max_value=2))
def test_property_delivery_when_correct_connected(seed_int, n, mute_count):
    coords = random_coords(seed_int, n)
    mute = set(range(n - mute_count, n))  # highest ids (worst case)
    positions = [Position(*c) for c in coords]
    correct = set(range(n)) - mute
    # networkx is the oracle for the paper's precondition.
    sub = nx.Graph(connectivity_graph(positions, TX_RANGE)).subgraph(correct)
    correct_connected = sub.number_of_nodes() <= 1 or nx.is_connected(sub)

    builder = NetworkBuilder(seed=seed_int % 97 + 1).positions(coords)
    for node_id in mute:
        builder.with_behavior(node_id, MuteBehavior())
    net = builder.build().warm_up()
    msg_id = net.nodes[0].broadcast(b"property probe")
    net.run(35.0)

    delivered = net.delivered_to(msg_id)
    # Validity: every accept references the true originator and payload.
    for node in net.nodes:
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
    net = NetworkBuilder(seed=seed_int % 89 + 1).positions(coords) \
        .build().warm_up()
    ids = [net.nodes[0].broadcast(f"m{i}".encode()) for i in range(3)]
    net.run(25.0)
    for node in net.nodes:
        seen = [rec[2] for rec in node.accepted]
        assert len(seen) == len(set(seen)), \
            f"node {node.node_id} accepted a duplicate (seed={seed_int})"
