"""A6 — Purging strategies: timeout (the paper's choice) vs stability
detection (the alternative §3.2.2 names).

Timeout purging is simple but holds every message for the full worst-case
window; stability detection releases buffers as soon as the ack horizon
shows everyone in view has delivered.  Measured: peak buffer occupancy and
delivery, under a steady multi-message workload on a line (where holding
times matter most).
"""

from repro.core.config import ProtocolConfig
from repro.core.node import NetworkNode, NodeStackConfig
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.des.timers import PeriodicTask
from repro.radio.geometry import Position
from repro.radio.medium import Medium
from repro.reliable import FifoDeliveryQueue, StabilityDetector

from common import emit, once

N = 5
MESSAGES = 12
TIMEOUT_RETENTION = 30.0


def run_variant(stability_purge: bool):
    sim = Simulator()
    streams = StreamFactory(23)
    medium = Medium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"a6"))
    stack = NodeStackConfig(protocol=ProtocolConfig(
        purge_timeout=TIMEOUT_RETENTION, purge_period=1.0))
    nodes = [NetworkNode(sim, medium, i, Position(i * 80.0, 0.0), 100.0,
                         streams, directory, stack)
             for i in range(N)]
    deliveries = {node.node_id: [] for node in nodes}
    sent = {node.node_id: 0 for node in nodes}   # highest seq broadcast
    for node in nodes:
        nid = node.node_id
        queue = FifoDeliveryQueue(
            sim, lambda s, q, p, nid=nid: deliveries[nid].append((s, q)))
        node.add_accept_listener(
            lambda receiver, originator, payload, msg_id, queue=queue:
            queue.offer(originator, msg_id.seq, payload))
        stability = StabilityDetector(
            sim, node.neighbors, queue, own_source=nid,
            own_sent_fn=lambda nid=nid: sent[nid])
        if stability_purge:
            PeriodicTask(sim, 1.0, lambda s=stability, n=node:
                         s.purge_stable(n.protocol.store)).start()
    for node in nodes:
        node.start()
    sim.run(until=8.0)
    for i in range(MESSAGES):
        sent[0] = nodes[0].broadcast(f"m{i}".encode()).seq
        sim.run(until=sim.now + 1.0)
    sim.run(until=sim.now + 15.0)
    peak_buffer = max(node.protocol.stats.max_buffer for node in nodes)
    end_buffer = max(node.protocol.store.buffered_count for node in nodes)
    tail = deliveries[N - 1]
    in_order = [seq for source, seq in tail if source == 0]
    return {
        "purging": "stability" if stability_purge else "timeout",
        "peak_buffer_msgs": peak_buffer,
        "end_buffer_msgs": end_buffer,
        "fifo_delivered": len(in_order),
        "fifo_in_order": in_order == sorted(in_order),
    }


def run_comparison():
    return [run_variant(False), run_variant(True)]


def test_a6_stability_purge(benchmark):
    rows = once(benchmark, run_comparison)
    emit("a6_stability_purge",
         f"A6: timeout vs stability purging (n={N}, {MESSAGES} msgs)",
         rows)
    timeout = next(r for r in rows if r["purging"] == "timeout")
    stability = next(r for r in rows if r["purging"] == "stability")
    # Both deliver everything, in order.
    for row in rows:
        assert row["fifo_delivered"] == MESSAGES
        assert row["fifo_in_order"]
    # Stability releases buffers earlier than the 30 s timeout window.
    assert stability["peak_buffer_msgs"] <= timeout["peak_buffer_msgs"]
    assert stability["peak_buffer_msgs"] < MESSAGES
