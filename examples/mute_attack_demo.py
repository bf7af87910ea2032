#!/usr/bin/env python3
"""Anatomy of a mute attack — and of the recovery that defeats it.

A four-node diamond::

        1 (correct)
      /   \\
    0       3
      \\   /
        2 (MUTE Byzantine — and the overlay's preferred member!)

Node 2 has the higher id, so the id-based CDS election puts *it* in the
overlay.  It beacons happily (staying elected) but silently drops every
protocol message.  Watch the paper's machinery engage, step by step:

1. node 0 broadcasts; node 3 receives nothing via the overlay;
2. node 1's gossip reveals the message's existence to node 3;
3. node 3 REQUESTs and node 1 serves — delivery despite the mute node;
4. node 3's MUTE detector strikes node 2 for not forwarding;
5. enough strikes → suspicion → TRUST → node 2 is voted off the island
   (the overlay re-forms around node 1).

Run:  python examples/mute_attack_demo.py
"""

from repro.adversary import MuteBehavior
from repro.core import NetworkNode, NodeStackConfig
from repro.crypto import HmacScheme, KeyDirectory
from repro.des import Simulator, StreamFactory
from repro.fd import TrustLevel
from repro.radio import Position, VectorizedMedium

DIAMOND = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
MUTE_NODE = 2


def build_network():
    sim = Simulator()
    streams = StreamFactory(7)
    medium = VectorizedMedium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"demo"))
    nodes = []
    for node_id, (x, y) in enumerate(DIAMOND):
        behavior = MuteBehavior() if node_id == MUTE_NODE else None
        nodes.append(NetworkNode(sim, medium, node_id, Position(x, y),
                                 100.0, streams, directory,
                                 NodeStackConfig(), behavior=behavior))
    for node in nodes:
        node.start()
    return sim, nodes


def snapshot(sim, nodes, label):
    overlay = [n.node_id for n in nodes if n.overlay.in_overlay]
    strikes = {n.node_id: n.mute.suspicion_count(MUTE_NODE)
               for n in nodes if n.node_id != MUTE_NODE}
    trusts = {n.node_id: n.trust.level(MUTE_NODE).name
              for n in nodes if n.node_id != MUTE_NODE}
    print(f"[t={sim.now:6.1f}s] {label}")
    print(f"    overlay members: {overlay}")
    print(f"    MUTE strikes against node {MUTE_NODE}: {strikes}")
    print(f"    trust in node {MUTE_NODE}: {trusts}")


def main() -> None:
    sim, nodes = build_network()
    accepted_log = []
    for node in nodes:
        node.add_accept_listener(
            lambda receiver, orig, payload, mid:
            accepted_log.append((sim.now, receiver, mid)))

    print(__doc__)
    sim.run(until=8.0)
    snapshot(sim, nodes, "after warm-up (node 2 elected itself — it has "
                         "the high id)")

    for round_no in range(6):
        msg_id = nodes[0].broadcast(f"round {round_no}".encode())
        sim.run(until=sim.now + 4.0)
        receivers = sorted(r for t, r, m in accepted_log
                           if m == msg_id and r != MUTE_NODE)
        print(f"[t={sim.now:6.1f}s] broadcast #{round_no} accepted by "
              f"correct nodes {receivers} "
              f"({'full delivery' if receivers == [1, 3] else 'partial'})")

    snapshot(sim, nodes, "after six broadcasts")
    sim.run(until=sim.now + 10.0)
    snapshot(sim, nodes, "after the dust settles")

    correct = [n for n in nodes if n.node_id != MUTE_NODE]
    ever_struck = any(n.mute.stats.timeouts > 0 for n in correct)
    distrusted = any(n.trust.level(MUTE_NODE) is not TrustLevel.TRUSTED
                     for n in correct)
    delivered = all(
        sorted(r for t, r, m in accepted_log
               if m[0] == 0 and m[1] == seq and r != MUTE_NODE) == [1, 3]
        for seq in range(1, 7))

    print("\nOutcome:")
    print(f"  every broadcast reached every correct node: {delivered}")
    print(f"  the mute node was struck by MUTE detectors: {ever_struck}")
    print(f"  the mute node lost trust somewhere:         {distrusted}")


if __name__ == "__main__":
    main()
