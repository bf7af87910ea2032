"""Integration tests for stability detection, FIFO delivery and the
stability purge, wired onto a real simulated network."""

from repro.des.timers import PeriodicTask
from repro.reliable import FifoDeliveryQueue, StabilityDetector

from tests.helpers import build_network, line_coords


class Endpoint:
    """One node's reliable layer: accepts feed a FIFO queue, whose ack
    vector the stability detector gossips on the HELLO beacons; with
    ``purge`` the node drops stable payloads every second."""

    def __init__(self, sim, node, deliveries, purge=False):
        self.node = node
        self.sent_seq = 0
        self.stable_purged = 0
        self.queue = FifoDeliveryQueue(
            sim, lambda s, q, p: deliveries.append((s, q)))
        node.add_accept_listener(
            lambda receiver, originator, payload, msg_id:
            self.queue.offer(originator, msg_id.seq, payload))
        self.stability = StabilityDetector(
            sim, node.neighbors, self.queue, own_source=node.node_id,
            own_sent_fn=lambda: self.sent_seq)
        if purge:
            PeriodicTask(sim, 1.0, self._purge).start()

    def send(self, payload):
        self.sent_seq = self.node.broadcast(payload).seq

    def _purge(self):
        self.stable_purged += self.stability.purge_stable(
            self.node.protocol.store)


def build_channels(coords, purge=False):
    sim, medium, nodes, _ = build_network(coords, 100.0, seed=6)
    deliveries = {node.node_id: [] for node in nodes}
    channels = {node.node_id: Endpoint(sim, node, deliveries[node.node_id],
                                       purge)
                for node in nodes}
    sim.run(until=8.0)
    return sim, nodes, channels, deliveries


class TestStabilityDetection:
    def test_message_becomes_stable_everywhere(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(4, 80.0))
        channels[0].send(b"first")
        sim.run(until=sim.now + 15.0)
        for node_id, channel in channels.items():
            assert channel.stability.is_stable(0, 1), \
                f"node {node_id} does not see (0,1) stable"

    def test_unsent_message_not_stable(self):
        sim, nodes, channels, _ = build_channels(line_coords(3, 80.0))
        sim.run(until=sim.now + 5.0)
        assert not channels[0].stability.is_stable(0, 1)

    def test_straggler_blocks_stability(self):
        # A node that never receives keeps the horizon at 0.
        sim, nodes, channels, _ = build_channels(line_coords(3, 80.0))
        nodes[2].radio.power_off()  # silent receiver
        channels[0].send(b"first")
        sim.run(until=sim.now + 4.0)
        # While node 2's (empty) ack reports are still fresh, they hold
        # the stability horizon down...
        assert not channels[1].stability.is_stable(0, 1)
        sim.run(until=sim.now + 12.0)  # ...until they go stale.
        # Node 1 heard node 2's earlier hellos claiming nothing; once node
        # 2's reports go stale it stops counting, so eventually stability
        # is reached among the live nodes.
        assert channels[1].stability.is_stable(0, 1)

    def test_reporters_listed(self):
        sim, nodes, channels, _ = build_channels(line_coords(3, 80.0))
        channels[0].send(b"x")
        sim.run(until=sim.now + 6.0)
        assert 1 in channels[0].stability.reporters()

    def test_malformed_ack_vector_ignored(self):
        sim, nodes, channels, _ = build_channels(line_coords(2, 80.0))
        detector = channels[0].stability
        detector._on_hello(1, {"acks": "garbage"})
        detector._on_hello(1, {"acks": ((0, "NaN"),)})
        detector._on_hello(1, {"acks": ((0, -5),)})
        detector._on_hello(1, {"acks": ((0, float("inf")),)})
        assert detector.stable_horizon(0) >= 0  # still sane


class TestFifoOverNetwork:
    def test_receivers_deliver_in_order(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(4, 80.0))
        for i in range(5):
            channels[0].send(f"m{i}".encode())
            sim.run(until=sim.now + 1.0)
        sim.run(until=sim.now + 20.0)
        for node_id, log in deliveries.items():
            if node_id == 0:
                continue
            seqs = [seq for source, seq in log if source == 0]
            assert seqs == [1, 2, 3, 4, 5], f"node {node_id}: {seqs}"

    def test_two_sources_fifo_per_source(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(4, 80.0))
        for i in range(3):
            channels[0].send(f"a{i}".encode())
            channels[3].send(f"b{i}".encode())
            sim.run(until=sim.now + 1.5)
        sim.run(until=sim.now + 20.0)
        for node_id, log in deliveries.items():
            for source in (0, 3):
                if node_id == source:
                    continue
                seqs = [seq for s, seq in log if s == source]
                assert seqs == [1, 2, 3]


class TestStabilityPurge:
    def test_stable_messages_purged_early(self):
        sim, nodes, channels, _ = build_channels(
            line_coords(3, 80.0), purge=True)
        channels[0].send(b"to purge")
        sim.run(until=sim.now + 15.0)
        purged_anywhere = sum(c.stable_purged for c in channels.values())
        assert purged_anywhere > 0

    def test_delivery_unharmed_by_stability_purge(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(4, 80.0), purge=True)
        for i in range(4):
            channels[0].send(f"m{i}".encode())
            sim.run(until=sim.now + 2.0)
        sim.run(until=sim.now + 20.0)
        for node_id in (1, 2, 3):
            seqs = [seq for s, seq in deliveries[node_id] if s == 0]
            assert seqs == [1, 2, 3, 4]
