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

from repro.obs import ObsConfig, write_trace
from repro.sim import ExperimentConfig, build_world, finish_world
from repro.workloads import AdversaryMix, BroadcastEvent, ScenarioConfig

#: The four-node diamond: ids 0 and 3 are the far ends, 1 and 2 the arms.
DIAMOND = ((0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0))
MUTE_NODE = 2
#: Eight 7-byte probes from node 0, 3 s apart, once the overlay settled.
PROBES = tuple(BroadcastEvent(time=8.0 + 3.0 * i, source=0, payload_size=7)
               for i in range(8))


def main() -> None:
    world = build_world(ExperimentConfig(
        scenario=ScenarioConfig(
            n=len(DIAMOND), seed=7, placement=DIAMOND,
            adversaries=AdversaryMix.mute(1, placement=(MUTE_NODE,))),
        warmup=0.0, workload=PROBES, drain=13.0, observe=ObsConfig()))
    events = []   # (time, category, node, details), in emission order

    def record(category, node, **details):
        events.append((world.sim.now, category, node, details))

    # build_world has started the nodes, and start() runs the first
    # overlay election: record where it left each node, then listen.
    for node in world.nodes:
        record("overlay", node.node_id, status=node.overlay.status.value)
    for node in world.nodes:
        listen(node, record)
    result = finish_world(world)

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
        written = write_trace(result.trace, sys.argv[1])
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
