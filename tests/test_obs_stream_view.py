"""The recorder's ``span`` stream is a view of the context's spans.

``ObsContext.span`` builds one :class:`~repro.obs.Span` and reserves a
position in the attached :class:`~repro.tracing.TraceRecorder`'s stream;
the ``span`` events themselves are derived when the stream is read.
What is pinned here:

* the view equals the copy it replaced — literal digests taken on the
  commit that still copied, and a property test against an eager
  reference model over every filter/capacity combination;
* nothing is built per span until the stream is read, and the media ask
  for a frame's message id once per transmission;
* a pickled mid-run world continues both streams identically.
"""

import hashlib
import json
import os
import pickle
import sys
import tempfile
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultEvent, FaultSchedule, OracleConfig
from repro.core.messages import MessageId
from repro.obs import ObsConfig, ObsContext
from repro.obs import context as obs_context
from repro.radio.medium import Medium
from repro.radio.vectorized import VectorizedMedium
from repro.sim import (
    CheckpointConfig,
    ExperimentConfig,
    build_world,
    finish_world,
)
from repro.sim.experiment import MEDIA, OBS_CATEGORIES, _instruments
from repro.tracing import TraceRecorder
from repro.tracing import recorder as recorder_module
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# One observed run where spans interleave with everything else
# ----------------------------------------------------------------------
SCHEDULE = FaultSchedule(events=(
    FaultEvent(time=0.5, node=3, action="mute"),
    FaultEvent(time=1.0, node=7, action="crash"),
    FaultEvent(time=2.5, node=7, action="restart"),
    FaultEvent(time=3.0, node=3, action="recover"),
))


def interleaved_config(directory, n=30, **overrides):
    settings_ = dict(
        scenario=ScenarioConfig(n=n, seed=5,
                                adversaries=AdversaryMix.mute(2)),
        chaos=SCHEDULE, oracle=OracleConfig(),
        observe=ObsConfig(categories=OBS_CATEGORIES + ("accept",)),
        checkpoint=CheckpointConfig(every=2.0, directory=str(directory)),
        warmup=4.0, message_count=3, message_interval=1.0, drain=5.0)
    settings_.update(overrides)
    return ExperimentConfig(**settings_)


def _forged_accept(world):
    world.oracle.accept_listener(12, 0, b"forged", MessageId(0, 2))


def arm_verdicts(world):
    """The stock stack never trips the default oracle, so node 12 is made
    to "accept" a forged copy of (0, 2) twice mid-run: each feed yields a
    ``forged_payload`` and a ``duplicate_delivery`` violation."""
    for at in (6.25, 7.75):
        world.sim.schedule_at(at, _forged_accept, world)


def stream_rows(world):
    rows = [event.to_dict() for event in world.recorder.events]
    for row in rows:
        if row["category"] == "checkpoint":
            row["path"] = os.path.basename(row["path"])
    return rows


def digest(value, **dumps):
    return hashlib.sha256(json.dumps(value, **dumps).encode()).hexdigest()


@pytest.fixture(scope="module")
def interleaved_run(tmp_path_factory):
    world = build_world(interleaved_config(tmp_path_factory.mktemp("ckpt")))
    arm_verdicts(world)
    result = finish_world(world)
    return world, result


class TestViewEqualsTheCopy:
    """Digests computed on the parent commit (7f8b8ce), where every span
    was copied into ``recorder.events`` as it was emitted."""

    TRACE_SHA = \
        "874aa2c4661aace9d918243a8fb509bf8274d2710933fb036417c1fdee93b501"
    #: The stream as the parent exported it.  Its ``accept`` and
    #: ``violation`` rows carried the *message's* sequence number under
    #: ``seq`` (the tap's ``seq=msg_id.seq`` detail shadowed the stream
    #: position), which is the only thing that differs from STREAM_SHA:
    #: those rows now keep their stream ``seq`` and carry ``msg_seq``.
    PARENT_STREAM_SHA = \
        "7dabe969176d32cbc2bde2895383eadc5e90021b881f52ae1d49afde0993c0cb"
    STREAM_SHA = \
        "5b790bee6862028b9a97f5c70b544fe752a1d907ba6694dc96b437a64350733e"

    def test_run_interleaves_every_category(self, interleaved_run):
        world, result = interleaved_run
        counts = world.recorder.counts()
        assert set(counts) == {"span", "metric", "chaos", "violation",
                               "checkpoint", "accept"}
        assert counts["span"] == result.trace["span_count"] > 5000
        assert counts["violation"] == result.invariant_violations == 4

    def test_trace_payload_is_the_parents(self, interleaved_run):
        _, result = interleaved_run
        assert digest(result.trace, sort_keys=True) == self.TRACE_SHA

    def test_merged_stream_is_the_parents_but_for_the_seq_fix(
            self, interleaved_run):
        world, _ = interleaved_run
        rows = stream_rows(world)
        assert digest(rows) == self.STREAM_SHA
        # Undo the fix row by row and the parent's bytes come back.
        for row in rows:
            if row["category"] in ("accept", "violation"):
                row["seq"] = row.pop("msg_seq")
        assert digest(rows) == self.PARENT_STREAM_SHA

    def test_exported_seq_column_is_one_to_n(self, interleaved_run,
                                             tmp_path):
        """Regression for the clobbered ``seq``: with accepts *and*
        oracle violations in the stream, the JSONL ``seq`` column is
        exactly 1..N."""
        world, _ = interleaved_run
        path = tmp_path / "stream.jsonl"
        count = world.recorder.to_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["seq"] for row in rows] == list(range(1, count + 1))
        assert {row["msg_seq"] for row in rows
                if row["category"] == "violation"} == {2}
        assert {row["msg_seq"] for row in rows
                if row["category"] == "accept"} == {1, 2, 3}


# ----------------------------------------------------------------------
# Property: the view against an eager reference model
# ----------------------------------------------------------------------
class EagerStream:
    """The recorder as it was before the view: filter, capacity, a ``seq``
    and one stored row per event, spans included."""

    def __init__(self, categories, capacity):
        self.categories = set(categories)
        self.capacity = capacity
        self.clear()

    def clear(self):
        self.rows, self.dropped, self.seq = [], 0, 0

    def record(self, time, category, node, **details):
        if category not in self.categories:
            return
        if self.capacity is not None and len(self.rows) >= self.capacity:
            self.dropped += 1
            return
        self.seq += 1
        self.rows.append({"seq": self.seq, "time": round(time, 6),
                          "category": category, "node": node, **details})


SPAN_PHASES = ("rx", "tx", "deliver")
RECORD_CATEGORIES = ("metric", "chaos", "span", "tx")
_details = st.dictionaries(st.sampled_from(("kind", "sender", "reason")),
                           st.integers(0, 3), max_size=2)
_ops = st.lists(st.one_of(
    st.tuples(st.just("span"), st.sampled_from(SPAN_PHASES),
              st.integers(0, 2),
              st.one_of(st.none(), st.tuples(st.integers(0, 1),
                                             st.integers(1, 2))),
              _details),
    st.tuples(st.just("record"), st.sampled_from(RECORD_CATEGORIES),
              st.integers(-1, 2), _details),
    st.tuples(st.just("advance"), st.floats(0.0, 1.0)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("read")),
), max_size=40)


def _assert_same_stream(recorder, model):
    events = recorder.events
    rows = [event.to_dict() for event in events]
    assert rows == model.rows
    assert recorder.dropped == model.dropped
    assert recorder.counts() == dict(Counter(r["category"] for r in rows))
    assert [e.to_dict() for e in recorder.select(category="span")] == \
        [r for r in rows if r["category"] == "span"]
    assert [e.to_dict() for e in recorder.select(node=1, since=0.5)] == \
        [r for r, e in zip(rows, events) if e.node == 1 and e.time >= 0.5]
    for phase in SPAN_PHASES:
        first = recorder.first("span", phase=phase)
        expected = next((r for r in rows if r["category"] == "span"
                         and r.get("phase") == phase), None)
        assert (first and first.to_dict()) == expected
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "stream.jsonl")
        assert recorder.to_jsonl(path) == len(rows)
        with open(path) as handle:
            assert handle.read() == "".join(json.dumps(r) + "\n"
                                            for r in rows)


@settings(max_examples=150, deadline=None)
@given(ops=_ops,
       with_span_category=st.booleans(),
       recorder_capacity=st.one_of(st.none(), st.integers(0, 8)),
       context_capacity=st.one_of(st.none(), st.integers(0, 6)),
       phases=st.one_of(st.none(), st.just(("rx", "deliver"))))
def test_view_equals_eager_reference_model(ops, with_span_category,
                                           recorder_capacity,
                                           context_capacity, phases):
    categories = {"metric", "chaos"} | ({"span"} if with_span_category
                                        else set())
    clock = SimpleNamespace(now=0.0)
    recorder = TraceRecorder(clock, categories=categories,
                             capacity=recorder_capacity)
    ctx = ObsContext(ObsConfig(capacity=context_capacity, phases=phases),
                     sim=clock)
    ctx.attach_recorder(recorder)
    model = EagerStream(categories, recorder_capacity)
    occurrences = Counter()
    kept = 0
    for op in ops:
        if op[0] == "span":
            _, phase, node, msg, detail = op
            sid = ctx.span(phase, node, msg=msg, **detail)
            if phases is not None and phase not in phases:
                assert sid is None
                continue
            occurrences[msg, node] += 1
            assert sid == obs_context.span_id(msg, node,
                                              occurrences[msg, node])
            if context_capacity is not None and kept >= context_capacity:
                continue        # dropped by the context: never fanned in
            kept += 1
            model.record(clock.now, "span", node, span=sid, phase=phase,
                         msg=obs_context.msg_key(msg), **detail)
        elif op[0] == "record":
            _, category, node, detail = op
            recorder.record(category, node, **detail)
            model.record(clock.now, category, node, **detail)
        elif op[0] == "advance":
            clock.now += op[1]
        elif op[0] == "clear":
            recorder.clear()
            model.clear()
        else:
            _assert_same_stream(recorder, model)
    _assert_same_stream(recorder, model)
    assert len(ctx.spans) == kept


# ----------------------------------------------------------------------
# Nothing per span until the stream is read; msg_of once per transmission
# ----------------------------------------------------------------------
def small_observed_config(medium):
    return ExperimentConfig(
        scenario=ScenarioConfig(n=12, seed=3), medium=medium,
        chaos=SCHEDULE, oracle=OracleConfig(), observe=ObsConfig(),
        warmup=3.0, message_count=2, message_interval=1.0, drain=4.0)


def test_no_trace_event_is_built_per_span(monkeypatch):
    built = []

    class CountedTraceEvent(recorder_module.TraceEvent):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(recorder_module, "TraceEvent", CountedTraceEvent)
    world = build_world(small_observed_config("vectorized"))
    finish_world(world)
    during_run = len(built)
    counts = world.recorder.counts()       # first read of the stream
    assert counts["span"] == len(world.obs.spans) > 1000
    assert during_run == sum(count for category, count in counts.items()
                             if category != "span") > 0
    # Reading derives the span events and reuses the recorded ones.
    assert len(built) == during_run + counts["span"]


@pytest.mark.parametrize("medium", MEDIA)
def test_media_ask_for_the_message_id_once_per_transmission(
        monkeypatch, medium):
    real_msg_of = obs_context.msg_of
    completions = []        # holds each tx, so ids are never reused
    asked = Counter()

    def msg_of(payload):
        caller = sys._getframe(1)
        if caller.f_code.co_name in ("_complete_body",
                                     "_resolve_reception"):
            asked[id(caller.f_locals["tx"])] += 1
        return real_msg_of(payload)

    for cls in (Medium, VectorizedMedium):
        real = cls._complete_body

        def complete_body(self, tx, _real=real):
            if not completions or completions[-1] is not tx:
                completions.append(tx)
            _real(self, tx)

        monkeypatch.setattr(cls, "_complete_body", complete_body)
    monkeypatch.setattr(obs_context, "msg_of", msg_of)
    world = build_world(small_observed_config(medium))
    finish_world(world)
    receptions = sum(1 for span in world.obs.spans
                     if span.phase in ("rx", "collision", "loss"))
    assert receptions > len(completions) > 0
    assert set(asked.values()) == {1}
    assert len(asked) == len(completions)


# ----------------------------------------------------------------------
# A pickled mid-run world continues both streams
# ----------------------------------------------------------------------
@pytest.mark.checkpoint
def test_pickled_world_continues_both_streams(tmp_path):
    def run(directory, interrupt_at=None):
        # No checkpoint slicing here: a hand-made interruption skips
        # the boundary snapshots (and their events) a real one writes.
        world = build_world(interleaved_config(directory, n=12,
                                               checkpoint=None))
        arm_verdicts(world)
        if interrupt_at is not None:
            with _instruments(world.profiler, world.obs):
                world.sim.run(until=interrupt_at)
            world = pickle.loads(pickle.dumps(world))
            # One context, shared — not a second copy of every span.
            assert world.recorder is world.obs.recorder
            assert world.recorder.counts()["span"] == len(world.obs.spans)
        result = finish_world(world)
        return json.dumps(result.trace, sort_keys=True), stream_rows(world)

    trace, rows = run(tmp_path / "whole")
    resumed_trace, resumed_rows = run(tmp_path / "resumed", interrupt_at=6.6)
    assert resumed_trace == trace
    assert resumed_rows == rows
    assert {"span", "accept", "violation", "chaos", "metric"} == \
        {row["category"] for row in rows}
