"""E10 — Empirical validation of the §3.5 analysis.

Two quantities on the worst-case (line) topology the analysis reasons
about:

* **Dissemination time** (Theorem 3.4): every correct node receives a
  message within ``max_timeout · (n−1)`` — we report the measured
  completion time and its ratio to the bound (the bound should be loose);
* **Buffer size**: a static node buffers at most ``retention · δ``
  messages at injection rate δ.

``ProtocolConfig.max_timeout()`` is the one home of ``max_timeout``;
:class:`repro.chaos.InvariantOracle` derives the same two bounds from it
and checks them on live runs, and ``tests/test_analysis_bounds.py``
pins them in tier-1.
"""

from repro.core.config import ProtocolConfig
from repro.core.node import NodeStackConfig
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.core.node import NetworkNode
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.metrics.collector import MetricsCollector
from repro.radio.geometry import Position
from repro.radio.medium import Medium

from common import emit, once

NS = (6, 10, 14)
SPACING = 80.0


def run_line(n):
    sim = Simulator()
    streams = StreamFactory(5)
    medium = Medium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"e10"))
    stack = NodeStackConfig()
    nodes = [NetworkNode(sim, medium, i, Position(i * SPACING, 0.0), 100.0,
                         streams, directory, stack)
             for i in range(n)]
    collector = MetricsCollector({node.node_id for node in nodes})
    listener = collector.listener(sim)
    for node in nodes:
        node.add_accept_listener(listener)
        node.start()
    sim.run(until=10.0)
    for i in range(3):
        msg_id = nodes[0].broadcast(f"bound probe {i}".encode())
        collector.on_broadcast(msg_id, sim.now)
        sim.run(until=sim.now + 2.0)
    sim.run(until=sim.now + 60.0)
    completions = collector.completion_latencies()
    max_buffer = max(node.protocol.stats.max_buffer for node in nodes)
    return completions, max_buffer, stack.protocol


def run_sweep():
    rows = []
    for n in NS:
        completions, max_buffer, config = run_line(n)
        bound = config.max_timeout() * (n - 1)
        worst = max(completions) if completions else None
        rows.append({
            "n": n,
            "messages_complete": len(completions),
            "worst_completion_s": round(worst, 3) if worst else None,
            "bound_s": round(bound, 2),
            "ratio": round(worst / bound, 3) if worst else None,
            "max_buffer_msgs": max_buffer,
        })
    return rows


def test_e10_analysis_bounds(benchmark):
    rows = once(benchmark, run_sweep)
    emit("e10_analysis_bounds",
         "E10: dissemination-time bound (Theorem 3.4) on line topologies",
         rows)
    for row in rows:
        assert row["messages_complete"] == 3
        # Theorem 3.4 holds, with slack (the bound is a worst case).
        assert row["ratio"] is not None and row["ratio"] <= 1.0
        # Buffering stays near the live message count (3 + gossip window).
        assert row["max_buffer_msgs"] <= 3
