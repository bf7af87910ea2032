#!/usr/bin/env python3
"""Forensics: reconstruct a Byzantine attack from the event trace.

Runs the diamond mute-attack scenario with a :class:`TraceRecorder`
attached to every observable seam (radio, accepts, failure detectors,
trust, overlay elections), then prints the chronological story of the
attack and exports the raw events as JSON Lines for external analysis.

Run:  python examples/suspicion_timeline.py [trace.jsonl]
"""

import sys

from repro.adversary import MuteBehavior
from repro.core import NetworkNode, NodeStackConfig
from repro.crypto import HmacScheme, KeyDirectory
from repro.des import Simulator, StreamFactory
from repro.radio import Position, VectorizedMedium
from repro.tracing import TraceRecorder

DIAMOND = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
MUTE_NODE = 2


def main() -> None:
    sim = Simulator()
    streams = StreamFactory(7)
    medium = VectorizedMedium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"timeline"))
    nodes = [NetworkNode(sim, medium, i, Position(*DIAMOND[i]), 100.0,
                         streams, directory, NodeStackConfig(),
                         behavior=MuteBehavior() if i == MUTE_NODE else None)
             for i in range(len(DIAMOND))]
    recorder = TraceRecorder(
        sim, categories=("accept", "suspect", "trust", "overlay"))
    recorder.attach_network(medium, nodes)
    for node in nodes:
        node.start()

    sim.run(until=8.0)
    for i in range(8):
        nodes[0].broadcast(f"probe {i}".encode())
        sim.run(until=sim.now + 3.0)
    sim.run(until=sim.now + 10.0)

    print(f"Diamond network, node {MUTE_NODE} mute.  "
          f"{len(recorder.events)} events recorded.\n")
    print("time      event")
    print("--------  " + "-" * 58)
    for event in recorder.events:
        line = _describe(event)
        if line:
            print(f"{event.time:8.2f}  {line}")

    counts = recorder.counts()
    print(f"\ntotals: {counts}")
    if len(sys.argv) > 1:
        written = recorder.to_jsonl(sys.argv[1])
        print(f"wrote {written} events to {sys.argv[1]}")


def _describe(event) -> str:
    d = event.details
    if event.category == "overlay":
        return f"node {event.node} turned {d['status'].upper()}"
    if event.category == "suspect":
        return (f"node {event.node}'s {d['detector'].upper()} detector "
                f"suspects node {d['target']}")
    if event.category == "trust":
        return (f"node {event.node} now rates node {d['target']} "
                f"{d['level']}")
    if event.category == "accept":
        if d["msg_seq"] == 1 or d["msg_seq"] == 8:
            return (f"node {event.node} accepted message #{d['msg_seq']} "
                    f"from node {d['originator']}")
        return ""  # keep the timeline readable
    return ""


if __name__ == "__main__":
    main()
