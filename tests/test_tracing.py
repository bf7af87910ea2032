"""Tracing a hand-built network.

A :class:`~repro.sim.NetworkBuilder` network is observed like every
other run: a ``repro.obs`` session around it records the lifecycle span
stream, which exports to the JSONL that ``repro trace`` reads.  Overlay,
trust and suspicion changes reach callers through the nodes' own
listener hooks.
"""

import json

import pytest

from repro import obs
from repro.adversary.behaviors import MuteBehavior
from repro.des.kernel import Simulator
from repro.obs import (ObsConfig, ObsContext, load_trace, timeline,
                       trace_path, write_trace)
from repro.sim.network import NetworkBuilder


def traced_network(until=5.0, **config):
    """Start a three-node line inside a session and run it to ``until``;
    returns ``(net, ctx)``."""
    net = NetworkBuilder(seed=1).line(3).build(start=False)
    ctx = ObsContext(ObsConfig(**config), sim=net.sim)
    with obs.session(ctx):
        for node in net.nodes:
            node.start()
        net.run(until)
    return net, ctx


def broadcast(net, ctx, payload, seconds):
    with obs.session(ctx):
        msg_id = net.nodes[0].broadcast(payload)
        net.run(seconds)
    return msg_id


def phases(ctx):
    return {span.phase for span in ctx.spans}


class TestRecording:
    def test_physical_events_recorded(self):
        _, ctx = traced_network()
        assert {"tx", "rx"} <= phases(ctx)

    def test_accept_events_carry_details(self):
        net, ctx = traced_network(until=8.0)
        accepts = []
        for node in net.nodes:
            node.add_accept_listener(
                lambda receiver, originator, payload, msg_id:
                accepts.append((receiver, originator, payload, msg_id)))
        msg_id = broadcast(net, ctx, b"traced", 10.0)
        assert {row[0] for row in accepts} == {1, 2}
        assert {row[1:] for row in accepts} == {(0, b"traced", msg_id)}
        delivers = [span for span in ctx.spans if span.phase == "deliver"]
        assert {(span.node, span.msg) for span in delivers} == {
            (1, tuple(msg_id)), (2, tuple(msg_id))}

    def test_suspect_events_on_mute_attack(self):
        net = (NetworkBuilder(seed=1).diamond()
               .with_behavior(2, MuteBehavior()).build(start=False))
        suspects = []
        for node in net.nodes:
            node.mute.add_listener(
                lambda target, reason, node_id=node.node_id:
                suspects.append((node_id, target)))
            node.start()
        with obs.session(ObsContext(ObsConfig(), sim=net.sim)) as ctx:
            net.run(8.0)
            for i in range(8):
                net.nodes[0].broadcast(f"p{i}".encode())
                net.run(3.0)
        assert any(target == 2 for _, target in suspects)
        assert "fd_timeout" in phases(ctx)

    def test_overlay_status_flips_recorded(self):
        def flips(subscribe_before_start):
            net = NetworkBuilder(seed=1).line(4).build(start=False)
            seen = []

            def subscribe():
                for node in net.nodes:
                    node.overlay.add_status_listener(
                        lambda node_id, status: seen.append(node_id))

            if subscribe_before_start:
                subscribe()
            for node in net.nodes:
                node.start()
            if not subscribe_before_start:
                subscribe()
            net.run(10.0)
            return seen

        early = flips(True)
        assert early  # somebody elected itself during convergence
        # start() runs the first election: a late subscriber misses it.
        assert len(flips(False)) < len(early)

    def test_event_ordering_monotone(self):
        _, ctx = traced_network()
        times = [span.time for span in ctx.spans]
        assert times == sorted(times)
        assert [span.seq for span in ctx.spans] == list(
            range(1, len(ctx.spans) + 1))


class TestFilteringAndQuerying:
    def test_category_filter(self):
        net, ctx = traced_network(until=8.0, phases=("deliver",))
        broadcast(net, ctx, b"x", 8.0)
        assert phases(ctx) == {"deliver"}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown phases"):
            ObsConfig(phases=("quantum",))

    def test_select_by_node_and_window(self):
        _, ctx = traced_network(until=6.0)
        view = timeline(ctx.span_dicts(), node=1)
        assert view["events"]
        assert all(span["node"] == 1 for span in view["events"])
        assert view["nodes"][1]["count"] == len(view["events"])
        assert view["nodes"][1]["last"] <= 6.0

    def test_first_with_match(self):
        net, ctx = traced_network(until=8.0)
        broadcast(net, ctx, b"x", 8.0)
        path = trace_path(ctx.span_dicts(), "0:1")
        assert path["origin"]["node"] == 0
        assert {hop["node"] for hop in path["deliveries"]} == {1, 2}
        assert trace_path(ctx.span_dicts(), "99:1")["origin"] is None

    def test_capacity_bound(self):
        _, ctx = traced_network(until=20.0, capacity=10)
        assert len(ctx.spans) == 10
        assert ctx.dropped > 0


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        _, ctx = traced_network()
        path = tmp_path / "trace.jsonl"
        count = write_trace(ctx.export_payload(), str(path))
        meta, spans = load_trace(str(path))
        assert count == len(spans) == len(ctx.spans) > 0
        assert meta["span_count"] == count
        assert spans == ctx.span_dicts()

    def test_seq_keeps_same_microsecond_events_distinct(self, tmp_path):
        sim = Simulator()
        ctx = ObsContext(ObsConfig(), sim=sim)
        for offset in (1.0000001, 1.0000002, 1.0000004):
            sim.schedule_at(offset, ctx.span, "tx", 0)
        sim.run()
        dicts = ctx.span_dicts()
        assert [d["time"] for d in dicts] == [1.0000001, 1.0000002,
                                              1.0000004]
        assert [d["seq"] for d in dicts] == [1, 2, 3]
        assert len({json.dumps(d) for d in dicts}) == 3
        path = tmp_path / "ties.jsonl"
        write_trace(ctx.export_payload(), str(path))
        assert load_trace(str(path))[1] == dicts


class TestStreamColumns:
    """``seq``/``span``/``time``/``phase``/``node``/``msg``/``duration``
    are the stream's own row keys: no detail may export something else
    under them."""

    def test_span_detail_cannot_shadow_a_column(self):
        # Spans are not checked when emitted (that is the hot path); the
        # export rows keep their columns whatever the detail is called.
        ctx = ObsContext(ObsConfig(), sim=Simulator())
        sid = ctx.span("rx", 3, msg=(0, 1), seq=99, time=-1.0,
                       span="bogus", category="x", sender=2)
        (span,) = ctx.spans
        assert span.to_dict() == {
            "seq": 1, "span": sid, "time": 0.0, "phase": "rx", "node": 3,
            "msg": "0:1", "duration": 0.0, "category": "x", "sender": 2}
        assert span.detail["seq"] == 99          # still on the object
