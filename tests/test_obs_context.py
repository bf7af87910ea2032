"""Unit tests for the observability core: spans, ids, registry, sampler.

Covers the two load-bearing properties of :mod:`repro.obs.context` —
deterministic span identity and zero cost when disabled — plus the
metric registry containers and payload merging used by sweeps.
"""

import pickle

import pytest

from repro.des.kernel import Simulator
from repro.obs import (
    PHASES,
    MetricRegistry,
    ObsConfig,
    ObsContext,
    active,
    msg_key,
    msg_of,
    session,
    span_id,
)
from repro.obs import context as obs_context

pytestmark = pytest.mark.obs


def make_context(**overrides):
    sim = Simulator()
    ctx = ObsContext(ObsConfig(**overrides), sim=sim)
    return sim, ctx


class TestIdentity:
    def test_msg_key_renders_originator_seq(self):
        assert msg_key((3, 7)) == "3:7"
        assert msg_key(None) is None

    def test_span_id_shape(self):
        assert span_id((3, 7), 5, 2) == "3:7/5/2"
        assert span_id(None, 5, 1) == "-/5/1"

    def test_msg_of_duck_types_the_message_family(self):
        class Data:
            msg_id = (2, 9)

        class Gossip:
            msg_id = (4, 1)

        class Request:
            gossip = Gossip()

        assert msg_of(Data()) == (2, 9)
        assert msg_of(Request()) == (4, 1)
        assert msg_of(object()) is None

    def test_occurrence_counter_is_per_message_and_node(self):
        _, ctx = make_context()
        first = ctx.span("rx", 1, msg=(0, 1))
        second = ctx.span("verify", 1, msg=(0, 1))
        other_node = ctx.span("rx", 2, msg=(0, 1))
        other_msg = ctx.span("rx", 1, msg=(0, 2))
        assert first == "0:1/1/1"
        assert second == "0:1/1/2"
        assert other_node == "0:1/2/1"
        assert other_msg == "0:2/1/1"

    def test_same_inputs_same_ids_across_contexts(self):
        ids = []
        for _ in range(2):
            _, ctx = make_context()
            ids.append([ctx.span("rx", 1, msg=(0, 1)),
                        ctx.span("deliver", 1, msg=(0, 1)),
                        ctx.span("tx", 2)])
        assert ids[0] == ids[1]


class TestRecording:
    def test_span_records_time_and_detail(self):
        sim, ctx = make_context()
        sim.schedule(1.25, lambda: ctx.span("rx", 3, msg=(0, 1), sender=7))
        sim.run()
        (span,) = ctx.spans
        assert span.time == 1.25
        assert span.phase == "rx"
        assert span.detail == {"sender": 7}
        assert span.to_dict()["msg"] == "0:1"

    def test_seq_gives_total_order_under_time_ties(self):
        _, ctx = make_context()
        for _ in range(5):
            ctx.span("rx", 1, msg=(0, 1))
        seqs = [span.seq for span in ctx.spans]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_capacity_counts_drops_but_keeps_ids_flowing(self):
        _, ctx = make_context(capacity=2)
        ids = [ctx.span("rx", 1, msg=(0, 1)) for _ in range(4)]
        assert len(ctx.spans) == 2
        assert ctx.dropped == 2
        # Occurrence counters advance past capacity, so ids stay unique
        # and deterministic even for the dropped spans.
        assert ids == ["0:1/1/1", "0:1/1/2", "0:1/1/3", "0:1/1/4"]

    def test_phase_filter(self):
        _, ctx = make_context(phases=("deliver",))
        assert ctx.span("rx", 1, msg=(0, 1)) is None
        assert ctx.span("deliver", 1, msg=(0, 1)) is not None
        assert [s.phase for s in ctx.spans] == ["deliver"]

    def test_unknown_phase_in_config_rejected(self):
        with pytest.raises(ValueError):
            ObsConfig(phases=("teleport",))

    def test_spans_off_records_nothing(self):
        _, ctx = make_context(spans=False)
        assert ctx.span("rx", 1, msg=(0, 1)) is None
        assert not ctx.spans

    def test_phase_counters_accumulate(self):
        _, ctx = make_context()
        ctx.span("rx", 1, msg=(0, 1))
        ctx.span("rx", 2, msg=(0, 1))
        ctx.span("deliver", 2, msg=(0, 1))
        assert ctx.counters() == {"spans.deliver": 1, "spans.rx": 2}
        assert ctx.export_payload()["counters"] == ctx.counters()

    def test_last_span_id(self):
        _, ctx = make_context()
        ctx.span("rx", 1, msg=(0, 1))
        last = ctx.span("verify", 1, msg=(0, 1))
        ctx.span("rx", 2, msg=(0, 2))
        assert ctx.last_span_id(1) == last
        assert ctx.last_span_id(1, msg=(0, 1)) == last
        assert ctx.last_span_id(9) is None

    def test_all_documented_phases_are_recordable(self):
        _, ctx = make_context()
        for phase in PHASES:
            assert ctx.span(phase, 0) is not None


class TestActivation:
    def test_session_installs_and_restores(self):
        assert active() is None
        _, ctx = make_context()
        with session(ctx) as installed:
            assert installed is ctx
            assert obs_context.ACTIVE is ctx
        assert obs_context.ACTIVE is None

    def test_sessions_nest(self):
        _, outer = make_context()
        _, inner = make_context()
        with session(outer):
            with session(inner):
                assert obs_context.ACTIVE is inner
            assert obs_context.ACTIVE is outer
        assert obs_context.ACTIVE is None

    def test_disabled_means_no_active_context(self):
        # The zero-cost contract: every instrumented seam guards on this
        # exact read being None.
        assert obs_context.ACTIVE is None


class TestPickling:
    def test_context_roundtrips_with_state(self):
        sim, ctx = make_context()
        ctx.span("rx", 1, msg=(0, 1))
        ctx.span("deliver", 1, msg=(0, 1))
        ctx.meta["n"] = 4
        clone = pickle.loads(pickle.dumps(ctx))
        assert [s.span_id for s in clone.spans] == \
            [s.span_id for s in ctx.spans]
        assert clone.meta == ctx.meta
        # Occurrence counters survive: the next id continues the stream.
        clone.bind(sim)
        assert clone.span("purge", 1, msg=(0, 1)) == "0:1/1/3"


class TestRegistry:
    def test_primitives_pickle(self):
        # What a checkpoint carries: the sampled series and the phase
        # tally continue where they stopped.
        sim, ctx = make_context()
        ctx.span("rx", 1, msg=(0, 1))
        ctx.registry.record_sample(0.0, {"x": 1.0})
        clone = pickle.loads(pickle.dumps(ctx))
        clone.bind(sim)
        clone.span("rx", 2, msg=(0, 1))
        clone.registry.record_sample(0.5, {"x": 2.0})
        assert clone.counters() == {"spans.rx": 2}
        assert clone.registry.series_dict() == {"time": [0.0, 0.5],
                                                "x": [1.0, 2.0]}

    def test_record_sample_builds_rectangular_series(self):
        registry = MetricRegistry()
        registry.record_sample(0.0, {"x": 1.0})
        registry.record_sample(1.0, {"x": 2.0, "y": 5.0})
        series = registry.series_dict()
        assert series["time"] == [0.0, 1.0]
        assert series["x"] == [1.0, 2.0]
        # Late-appearing columns are backfilled to rectangular shape.
        assert series["y"] == [0.0, 5.0]
