#!/usr/bin/env python3
"""Forensics: reconstruct a Byzantine attack from the nodes' own events.

Runs the diamond mute-attack scenario with listeners on every node's
observable seams (accepts, failure detectors, trust, overlay elections),
then prints the chronological story of the attack.  The run is observed
like any other: given a path, it also writes the lifecycle span stream
as JSON Lines for ``repro trace latency|path|timeline``.

Run:  python examples/suspicion_timeline.py [trace.jsonl]
"""

import sys

from repro import obs
from repro.adversary import MuteBehavior
from repro.crypto import HmacScheme
from repro.obs import ObsConfig, ObsContext, write_trace
from repro.sim import NetworkBuilder

MUTE_NODE = 2


def main() -> None:
    net = (NetworkBuilder(seed=7).diamond()
           .with_behavior(MUTE_NODE, MuteBehavior())
           .with_scheme(HmacScheme(seed=b"timeline"))
           .build(start=False))
    events = []   # (time, category, node, details), in emission order

    def record(category, node, **details):
        events.append((net.sim.now, category, node, details))

    # Subscribe before start(): the first overlay election happens there.
    for node in net.nodes:
        listen(node, record)
    with obs.session(ObsContext(ObsConfig(), sim=net.sim)) as ctx:
        for node in net.nodes:
            node.start()
        net.run(8.0)
        for i in range(8):
            net.nodes[0].broadcast(f"probe {i}".encode())
            net.run(3.0)
        net.run(10.0)

    print(f"Diamond network, node {MUTE_NODE} mute.  "
          f"{len(events)} events recorded.\n")
    print("time      event")
    print("--------  " + "-" * 58)
    counts = {}
    for time, category, node, details in events:
        counts[category] = counts.get(category, 0) + 1
        line = _describe(category, node, details)
        if line:
            print(f"{time:8.2f}  {line}")

    print(f"\ntotals: {counts}")
    if len(sys.argv) > 1:
        written = write_trace(ctx.export_payload(), sys.argv[1])
        print(f"wrote {written} spans to {sys.argv[1]}")


def listen(node, record) -> None:
    node_id = node.node_id
    node.add_accept_listener(
        lambda receiver, originator, payload, msg_id: record(
            "accept", receiver, originator=originator, msg_seq=msg_id.seq))
    for detector in ("mute", "verbose"):
        getattr(node, detector).add_listener(
            lambda target, reason, detector=detector: record(
                "suspect", node_id, target=target, detector=detector))
    node.trust.add_listener(
        lambda target, level: record("trust", node_id, target=target,
                                     level=level.name))
    node.overlay.add_status_listener(
        lambda status_node, status: record("overlay", status_node,
                                           status=status.value))


def _describe(category, node, d) -> str:
    if category == "overlay":
        return f"node {node} turned {d['status'].upper()}"
    if category == "suspect":
        return (f"node {node}'s {d['detector'].upper()} detector "
                f"suspects node {d['target']}")
    if category == "trust":
        return f"node {node} now rates node {d['target']} {d['level']}"
    if category == "accept":
        if d["msg_seq"] == 1 or d["msg_seq"] == 8:
            return (f"node {node} accepted message #{d['msg_seq']} "
                    f"from node {d['originator']}")
        return ""  # keep the timeline readable
    return ""


if __name__ == "__main__":
    main()
