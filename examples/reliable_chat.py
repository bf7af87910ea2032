#!/usr/bin/env python3
"""Reliable group chat over Byzantine broadcast.

Footnote 4 of the paper says eventual dissemination suffices to build "a
reliable delivery mechanism" with flow control bounding the buffers.  This
example is that mechanism in action: a six-node mesh where two chatty
nodes blast messages through :class:`ReliableChannel` — per-source FIFO
delivery, ack-vector stability detection, a flow-control window of 3 —
while a Byzantine node silently drops everything it should forward.

Every participant prints the chat in the same per-author order, the
windows stay bounded, and stability-driven purging keeps buffers tiny.

Run:  python examples/reliable_chat.py
"""

from repro.adversary import MuteBehavior
from repro.core import NetworkNode, NodeStackConfig
from repro.crypto import HmacScheme, KeyDirectory
from repro.des import Simulator, StreamFactory
from repro.radio import Position, VectorizedMedium
from repro.reliable import ReliableChannel

POSITIONS = [(0.0, 0.0), (80.0, 40.0), (80.0, -40.0),
             (160.0, 0.0), (240.0, 40.0), (240.0, -40.0)]
MUTE_NODE = 5
ALICE, BOB = 0, 3
CHAT = {
    ALICE: ["hey all", "anyone near the gate?", "meeting moved to 3pm",
            "bring the badge", "see you there"],
    BOB: ["pong", "I'm at the gate now", "ack, 3pm works",
          "badge acquired", "on my way"],
}


def main() -> None:
    sim = Simulator()
    streams = StreamFactory(33)
    medium = VectorizedMedium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"chat"))
    nodes = [NetworkNode(sim, medium, i, Position(*POSITIONS[i]), 100.0,
                         streams, directory, NodeStackConfig(),
                         behavior=MuteBehavior() if i == MUTE_NODE else None)
             for i in range(len(POSITIONS))]
    logs = {node.node_id: [] for node in nodes}
    channels = {
        node.node_id: ReliableChannel(
            sim, node, window=3, stability_purge=True,
            deliver=lambda source, seq, payload, me=node.node_id:
            logs[me].append((source, seq, payload.decode())))
        for node in nodes
    }
    for node in nodes:
        node.start()
    sim.run(until=8.0)

    # Both authors fire their whole backlog at once: the window meters it.
    for author in (ALICE, BOB):
        for line in CHAT[author]:
            channels[author].send(line.encode())
    print(f"Alice backlog after burst: {channels[ALICE].sender.backlog} "
          f"(window {channels[ALICE].sender.window})")
    sim.run(until=sim.now + 40.0)

    names = {ALICE: "alice", BOB: "bob"}
    reader = 4  # a correct bystander
    print(f"\nChat as node {reader} saw it (FIFO per author):")
    for source, seq, text in logs[reader]:
        print(f"  {names[source]}[{seq}]: {text}")

    consistent = all(
        [entry for entry in logs[i] if entry[0] == author]
        == [entry for entry in logs[reader] if entry[0] == author]
        for i in (1, 2, 4)
        for author in (ALICE, BOB))
    buffers = {i: nodes[i].protocol.store.buffered_count
               for i in range(len(nodes))}
    print(f"\nall correct readers saw identical per-author logs: "
          f"{consistent}")
    print(f"buffered messages at the end (stability purge): {buffers}")
    print(f"Byzantine node {MUTE_NODE} dropped every forward; "
          f"gossip recovery carried the chat anyway.")


if __name__ == "__main__":
    main()
