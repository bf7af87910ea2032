"""Tests for the trace recorder."""

import json

import pytest

from repro.adversary.behaviors import MuteBehavior
from repro.tracing.recorder import TraceRecorder

from tests.helpers import build_network, line_coords


def traced_network(coords, behaviors=None, categories=None, capacity=None):
    sim, medium, nodes, _ = build_network(coords, 100.0,
                                          behaviors=behaviors)
    recorder = TraceRecorder(sim, categories=categories, capacity=capacity)
    recorder.attach_network(medium, nodes)
    return sim, nodes, recorder


class TestRecording:
    def test_physical_events_recorded(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=5.0)
        counts = recorder.counts()
        assert counts.get("tx", 0) > 0
        assert counts.get("rx", 0) > 0

    def test_accept_events_carry_details(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=8.0)
        nodes[0].broadcast(b"traced")
        sim.run(until=sim.now + 10.0)
        accepts = recorder.select(category="accept")
        assert accepts
        assert all(e.details["originator"] == 0 for e in accepts)
        assert {e.node for e in accepts} == {1, 2}

    def test_suspect_events_on_mute_attack(self):
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, nodes, recorder = traced_network(
            positions, behaviors={2: MuteBehavior()})
        sim.run(until=8.0)
        for i in range(8):
            nodes[0].broadcast(f"p{i}".encode())
            sim.run(until=sim.now + 3.0)
        suspects = recorder.select(category="suspect")
        assert any(e.details["target"] == 2 for e in suspects)

    def test_overlay_status_flips_recorded(self):
        sim, nodes, recorder = traced_network(line_coords(4, 80.0))
        sim.run(until=10.0)
        flips = recorder.select(category="overlay")
        assert flips  # somebody elected itself during convergence

    def test_event_ordering_monotone(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=5.0)
        times = [event.time for event in recorder.events]
        assert times == sorted(times)


class TestFilteringAndQuerying:
    def test_category_filter(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0),
                                              categories=["accept"])
        sim.run(until=8.0)
        nodes[0].broadcast(b"x")
        sim.run(until=sim.now + 8.0)
        assert set(recorder.counts()) <= {"accept"}

    def test_medium_is_tapped_only_for_a_physical_category(self):
        from repro.tracing.recorder import _MediumTap

        def taps(categories):
            sim, medium, nodes, _ = build_network(line_coords(2, 80.0),
                                                  100.0)
            TraceRecorder(sim, categories=categories).attach_medium(medium)
            return [observer for observer in medium._observers
                    if isinstance(observer, _MediumTap)]

        assert not taps(["accept", "suspect", "chaos"])
        assert len(taps(["accept", "collision"])) == 1
        assert len(taps(None)) == 1

    def test_unknown_category_rejected(self):
        sim, nodes, _ = traced_network(line_coords(2, 80.0))
        with pytest.raises(ValueError):
            TraceRecorder(sim, categories=["quantum"])

    def test_select_by_node_and_window(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=6.0)
        node1_events = recorder.select(node=1)
        assert node1_events
        assert all(e.node == 1 for e in node1_events)
        early = recorder.select(until=2.0)
        assert all(e.time <= 2.0 for e in early)

    def test_first_with_match(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=8.0)
        nodes[0].broadcast(b"x")
        sim.run(until=sim.now + 8.0)
        event = recorder.first("accept", originator=0)
        assert event is not None
        assert event.details["msg_seq"] == 1
        assert recorder.first("accept", originator=99) is None

    def test_capacity_bound(self):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0),
                                              capacity=10)
        sim.run(until=20.0)
        assert len(recorder.events) == 10
        assert recorder.dropped > 0

    def test_clear(self):
        sim, nodes, recorder = traced_network(line_coords(2, 80.0))
        sim.run(until=3.0)
        recorder.clear()
        assert recorder.events == []
        assert recorder.dropped == 0


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        sim, nodes, recorder = traced_network(line_coords(3, 80.0))
        sim.run(until=5.0)
        path = tmp_path / "trace.jsonl"
        count = recorder.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(recorder.events)
        parsed = json.loads(lines[0])
        assert {"time", "category", "node"} <= set(parsed)

    def test_seq_keeps_same_microsecond_events_distinct(self, tmp_path):
        # Regression: ``to_dict`` rounds ``time`` to 6 digits, so events
        # closer together than a microsecond used to export as
        # indistinguishable rows.  The monotonic ``seq`` keeps the order
        # total and re-importable.
        from repro.des.kernel import Simulator

        sim = Simulator()
        recorder = TraceRecorder(sim)
        for offset in (1.0000001, 1.0000002, 1.0000004):
            sim.schedule_at(offset, recorder.record, "tx", 0)
        sim.run()
        dicts = [event.to_dict() for event in recorder.events]
        assert {d["time"] for d in dicts} == {1.0}   # rounding collapsed
        assert [d["seq"] for d in dicts] == [1, 2, 3]
        assert len({json.dumps(d) for d in dicts}) == 3
        path = tmp_path / "ties.jsonl"
        recorder.to_jsonl(str(path))
        reloaded = [json.loads(line)
                    for line in path.read_text().splitlines()]
        assert sorted(reloaded, key=lambda d: d["seq"]) == dicts

    def test_seq_resets_with_clear(self):
        from repro.des.kernel import Simulator

        sim = Simulator()
        recorder = TraceRecorder(sim)
        recorder.record("tx", 0)
        recorder.clear()
        recorder.record("tx", 0)
        assert recorder.events[0].seq == 1


class TestStreamColumns:
    """``seq``/``time``/``category``/``node`` are the stream's own row
    keys: no tap or detail may export something else under them."""

    def make_recorder(self):
        from repro.des.kernel import Simulator

        sim = Simulator()
        return sim, TraceRecorder(sim)

    def test_accept_tap_keeps_the_stream_seq(self):
        # Regression: the tap recorded ``seq=msg_id.seq`` and ``to_dict``
        # ended with ``**details``, so this exported seqs 1, 2, 7.
        from repro.core.messages import MessageId
        from repro.tracing.recorder import _AcceptTap

        _, recorder = self.make_recorder()
        recorder.record("tx", 0)
        recorder.record("tx", 0)
        _AcceptTap(recorder)(1, 0, b"x", MessageId(0, 7))
        rows = [event.to_dict() for event in recorder.events]
        assert [row["seq"] for row in rows] == [1, 2, 3]
        assert rows[-1]["msg_seq"] == 7 and rows[-1]["originator"] == 0

    def test_violation_tap_exports_the_message_seq_as_msg_seq(self):
        from repro.chaos.oracle import InvariantViolation
        from repro.tracing.recorder import _ViolationTap

        _, recorder = self.make_recorder()
        recorder.record("tx", 0)
        violation = InvariantViolation(
            time=0.0, node=4, invariant="duplicate_delivery",
            detail={"originator": 0, "seq": 9, "span": "0:9/4/2"})
        _ViolationTap(recorder)(violation)
        row = recorder.events[-1].to_dict()
        assert row["seq"] == 2
        assert list(row)[4:] == ["invariant", "originator", "msg_seq", "span"]
        assert row["msg_seq"] == 9
        assert violation.detail["seq"] == 9     # the record is untouched

    @pytest.mark.parametrize("column", ["seq", "time"])
    def test_record_rejects_a_detail_named_like_a_column(self, column):
        _, recorder = self.make_recorder()
        with pytest.raises(ValueError, match="stream columns"):
            recorder.record("tx", 0, **{column: 5})
        assert recorder.events == []

    def test_span_detail_cannot_shadow_a_column(self):
        # Spans are not checked when emitted (that is the hot path); the
        # export rows keep their columns whatever the detail is called.
        from repro.obs import ObsConfig, ObsContext

        sim, _ = self.make_recorder()
        ctx = ObsContext(ObsConfig(), sim=sim)
        sid = ctx.span("rx", 3, msg=(0, 1), seq=99, time=-1.0,
                       span="bogus", category="x", sender=2)
        (span,) = ctx.spans
        assert span.to_dict() == {
            "seq": 1, "span": sid, "time": 0.0, "phase": "rx", "node": 3,
            "msg": "0:1", "duration": 0.0, "category": "x", "sender": 2}
        assert span.detail["seq"] == 99          # still on the object
