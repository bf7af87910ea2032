"""End-to-end integration tests: full nodes over a real simulated medium.

These exercise the paper's correctness properties (§2.3) on small networks:
eventual dissemination despite mute overlay nodes, droppers, liars; and
validity despite forgers and impersonators.
"""

import pytest

from repro.adversary.behaviors import (
    ForgingBehavior,
    GossipLiarBehavior,
    ImpersonationBehavior,
    MuteBehavior,
    SelectiveDropBehavior,
)
from repro.core.node import NodeStackConfig
from repro.des.random import RandomStream

from tests.helpers import build_network, line_coords


def delivered_to_all(nodes, msg_id, exclude=()):
    targets = [n for n in nodes
               if n.node_id != msg_id.originator
               and n.node_id not in exclude]
    return all(any(rec[2] == msg_id for rec in node.accepted)
               for node in targets)


def warm_up(sim, seconds=8.0):
    sim.run(until=sim.now + seconds)


class TestFailureFree:
    def test_line_topology_full_delivery(self):
        sim, medium, nodes, _ = build_network(line_coords(5, 80.0), 100.0)
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"hello line")
        sim.run(until=sim.now + 20.0)
        assert delivered_to_all(nodes, msg_id)

    def test_multiple_messages_all_delivered(self):
        sim, medium, nodes, _ = build_network(line_coords(4, 80.0), 100.0)
        warm_up(sim)
        ids = [nodes[0].broadcast(f"msg {i}".encode()) for i in range(5)]
        sim.run(until=sim.now + 25.0)
        for msg_id in ids:
            assert delivered_to_all(nodes, msg_id)

    def test_bidirectional_sources(self):
        sim, medium, nodes, _ = build_network(line_coords(4, 80.0), 100.0)
        warm_up(sim)
        a = nodes[0].broadcast(b"from head")
        b = nodes[3].broadcast(b"from tail")
        sim.run(until=sim.now + 20.0)
        assert delivered_to_all(nodes, a)
        assert delivered_to_all(nodes, b)

    def test_payload_integrity(self):
        sim, medium, nodes, _ = build_network(line_coords(3, 80.0), 100.0)
        payloads = {}
        for node in nodes:
            node.add_accept_listener(
                lambda receiver, orig, payload, mid:
                payloads.setdefault((receiver, mid), payload))
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"exact bytes \x00\xff")
        sim.run(until=sim.now + 15.0)
        received = [v for (r, m), v in payloads.items() if m == msg_id]
        assert received and all(p == b"exact bytes \x00\xff"
                                for p in received)

    def test_accept_at_most_once(self):
        sim, medium, nodes, _ = build_network(line_coords(4, 80.0), 100.0)
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"once")
        sim.run(until=sim.now + 25.0)
        for node in nodes:
            count = sum(1 for rec in node.accepted if rec[2] == msg_id)
            assert count <= 1


class TestMuteOverlayNodes:
    def test_recovery_around_mute_relay(self):
        # Line 0-1-2: node 1 is the only relay and it is mute.  Node 2 is
        # out of node 0's range: only gossip recovery can reach it... but a
        # mute node gossips nothing either, so dissemination must use the
        # TTL-2 path through node 1's *radio silence*: impossible.  Hence
        # we use a diamond: 0 - {1,2} - 3 where 1 is mute.
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={1: MuteBehavior()})
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"around the mute node")
        sim.run(until=sim.now + 25.0)
        assert delivered_to_all(nodes, msg_id, exclude={1})

    def test_mute_chain_recovered_by_gossip(self):
        # 0-1-2-3-4 line, middle relay 2 mute: 3 and 4 are cut off from the
        # overlay path and must recover via gossip through ttl-2 floods.
        sim, medium, nodes, _ = build_network(
            line_coords(5, 80.0), 100.0, behaviors={2: MuteBehavior()})
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"past the mute relay")
        sim.run(until=sim.now + 40.0)
        # Nodes 1 (direct) must receive; 3/4 need the ttl-2 recovery path
        # through the mute node's *neighbors* — here only node 2 physically
        # bridges, and it is silent, so 3-4 are unreachable by ANY correct
        # protocol (correct nodes are disconnected).  The paper's
        # assumption (correct nodes connected) is violated; assert exactly
        # the reachable set.
        assert any(rec[2] == msg_id for rec in nodes[1].accepted)
        assert not any(rec[2] == msg_id for rec in nodes[3].accepted)

    def test_mute_node_eventually_suspected_by_neighbors(self):
        # Node 2 has the higher id on the diamond arm, so the CDS election
        # puts it (not node 1) in the overlay — the most adverse spot for a
        # mute fault.  Its refusal to forward strikes the line-10
        # expectations of nodes that recover through node 1.
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={2: MuteBehavior()})
        suspicions = []   # (time, observer, target) from correct observers
        for node in nodes:
            if node.node_id != 2:
                for detector in (node.mute, node.verbose):
                    detector.add_listener(
                        lambda target, reason, me=node.node_id:
                        suspicions.append((sim.now, me, target)))
        warm_up(sim)
        start = sim.now
        for i in range(8):
            nodes[0].broadcast(f"probe {i}".encode())
            sim.run(until=sim.now + 3.0)
        sim.run(until=sim.now + 10.0)
        # I_mute accuracy: no correct node ever suspects a correct node.
        assert [s for s in suspicions if s[2] != 2] == []
        # I_mute completeness: a correct neighbour suspects node 2 within
        # 30 s of the first probe.
        assert any(target == 2 and time - start < 30.0
                   for time, _, target in suspicions), suspicions
        # The suspicion may have aged out by now (the overlay routed around
        # node 2, deliveries normalized, and strikes decayed — the intended
        # recovery cycle), so assert the cumulative evidence instead.
        strikers = [n.node_id for n in nodes if n.node_id != 2
                    and (n.mute.stats.timeouts > 0
                         or n.mute.suspicion_count(2) > 0)]
        assert strikers, "no correct node ever struck the mute overlay node"
        healed = [n.node_id for n in nodes
                  if n.node_id != 2 and n.overlay.in_overlay]
        assert healed, "overlay never re-elected a correct node"


class TestByzantineContent:
    def test_forged_forwards_rejected_and_recovered(self):
        # Diamond: forger on one arm corrupts payloads; other arm honest.
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        rng = RandomStream(5)
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={2: ForgingBehavior(rng)})
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"authentic payload")
        sim.run(until=sim.now + 25.0)
        assert delivered_to_all(nodes, msg_id, exclude={2})
        for node in nodes:
            for _, orig, mid in node.accepted:
                if mid == msg_id:
                    assert orig == 0

    def test_forger_gets_suspected(self):
        # The forger must sit on the forwarding path: node 2 wins the CDS
        # election on this diamond, so make it the forger.
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        rng = RandomStream(5)
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={2: ForgingBehavior(rng)})
        warm_up(sim)
        for i in range(4):
            nodes[0].broadcast(f"probe {i}".encode())
            sim.run(until=sim.now + 3.0)
        assert any(2 in n.trust.untrusted_nodes()
                   for n in nodes if n.node_id != 2)

    def test_impersonator_cannot_inject_as_victim(self):
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, medium, nodes, _ = build_network(
            positions, 100.0,
            behaviors={1: ImpersonationBehavior(victim_id=3)})
        warm_up(sim)
        msg_id = nodes[0].broadcast(b"impersonation test")
        sim.run(until=sim.now + 25.0)
        # Validity: nobody accepts anything claiming to originate at 3.
        for node in nodes:
            assert not any(orig == 3 for _, orig, _ in node.accepted)
        assert delivered_to_all(nodes, msg_id, exclude={1})

    def test_selective_dropper_tolerated(self):
        rng = RandomStream(11)
        sim, medium, nodes, _ = build_network(
            line_coords(4, 80.0), 100.0,
            behaviors={1: SelectiveDropBehavior(rng, 0.5)})
        warm_up(sim)
        ids = [nodes[0].broadcast(f"m{i}".encode()) for i in range(3)]
        sim.run(until=sim.now + 40.0)
        for msg_id in ids:
            assert delivered_to_all(nodes, msg_id, exclude={1})

    def test_gossip_liar_suspected(self):
        # The liar gossips but never serves → MUTE expectation on it fires.
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={2: GossipLiarBehavior()})
        warm_up(sim)
        for i in range(5):
            nodes[0].broadcast(f"probe {i}".encode())
            sim.run(until=sim.now + 3.0)
        sim.run(until=sim.now + 10.0)
        # Liar does gossip, so some neighbor expected data from it at some
        # point; tolerated if network healed through others, but the liar
        # must never block delivery.
        for node in nodes:
            if node.node_id == 2:
                continue
            assert len(node.accepted) == 5 or node.node_id == 0


class TestMobility:
    def test_delivery_under_waypoint_mobility(self):
        from repro.mobility.waypoint import RandomWaypoint
        from repro.radio.geometry import Area
        sim, medium, nodes, _ = build_network(
            [(50 + 60 * i, 100.0) for i in range(5)], 100.0, seed=4)
        area = Area(350, 200)
        mobility = RandomWaypoint(sim, [n.radio for n in nodes], area,
                                  RandomStream(8), speed_min=0.5,
                                  speed_max=2.0, pause_max=2.0)
        mobility.start()
        warm_up(sim)
        ids = [nodes[0].broadcast(f"m{i}".encode()) for i in range(3)]
        sim.run(until=sim.now + 60.0)
        delivered = sum(delivered_to_all(nodes, msg_id) for msg_id in ids)
        assert delivered >= 2  # dense area: mobility may delay, not kill
