"""An observed run has one event stream: the context's spans.

Observed worlds build no tap recorder and attach nothing to the nodes,
the medium, the chaos controller or the oracle; ``result.trace`` carries
the spans and the metric series, and oracle violations point into the
spans by id.  What is pinned here:

* the ``result.trace`` payload of an observed chaos + oracle +
  checkpoint-slicing run — a literal digest from the commit that still
  merged spans into a recorder stream, unchanged since;
* observing a run adds no listener anywhere and builds no trace event,
  and the media ask for a frame's message id once per transmission;
* a pickled mid-run world continues the trace identically.
"""

import hashlib
import json
import pickle
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.chaos import FaultEvent, FaultSchedule, OracleConfig
from repro.core.messages import MessageId
from repro.obs import ObsConfig, load_trace, write_trace
from repro.obs import context as obs_context
from repro.radio.medium import Medium
from repro.radio.vectorized import VectorizedMedium
from repro.sim import (
    CheckpointConfig,
    ExperimentConfig,
    build_world,
    finish_world,
)
from repro.sim.experiment import MEDIA, _instruments
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# One observed run with chaos, oracle verdicts and checkpoint slicing
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
        observe=ObsConfig(),
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


def digest(value, **dumps):
    return hashlib.sha256(json.dumps(value, **dumps).encode()).hexdigest()


@pytest.fixture(scope="module")
def interleaved_run(tmp_path_factory):
    world = build_world(interleaved_config(tmp_path_factory.mktemp("ckpt")))
    arm_verdicts(world)
    result = finish_world(world)
    return world, result


class TestViewEqualsTheCopy:
    """``TRACE_SHA`` was computed on commit 7f8b8ce, where every span was
    also copied into a recorder stream as it was emitted; dropping that
    stream left the payload byte for byte as it was."""

    TRACE_SHA = \
        "874aa2c4661aace9d918243a8fb509bf8274d2710933fb036417c1fdee93b501"

    def test_run_interleaves_every_category(self, interleaved_run):
        """Spans, chaos faults and oracle verdicts of one run meet in the
        span stream: each violation names a span the trace carries."""
        _, result = interleaved_run
        assert result.trace["span_count"] == len(result.trace["spans"]) \
            > 5000
        assert result.chaos_events == len(SCHEDULE.events)
        assert result.invariant_violations == len(result.violations) == 4
        span_ids = {span["span"] for span in result.trace["spans"]}
        assert all(violation["detail"]["span"] in span_ids
                   for violation in result.violations)

    def test_trace_payload_is_the_parents(self, interleaved_run):
        _, result = interleaved_run
        assert digest(result.trace, sort_keys=True) == self.TRACE_SHA

    def test_exported_seq_column_is_one_to_n(self, interleaved_run,
                                             tmp_path):
        """The JSONL export's ``seq`` column is exactly 1..N and reads
        back in that order."""
        _, result = interleaved_run
        path = str(tmp_path / "trace.jsonl")
        count = write_trace(result.trace, path)
        meta, spans = load_trace(path)
        assert meta["span_count"] == count == result.trace["span_count"]
        assert [span["seq"] for span in spans] == list(range(1, count + 1))
        assert spans == result.trace["spans"]


# ----------------------------------------------------------------------
# Observing adds no listener and builds no trace event; msg_of once per
# transmission
# ----------------------------------------------------------------------
def small_observed_config(medium):
    return ExperimentConfig(
        scenario=ScenarioConfig(n=12, seed=3), medium=medium,
        chaos=SCHEDULE, oracle=OracleConfig(), observe=ObsConfig(),
        warmup=3.0, message_count=2, message_interval=1.0, drain=4.0)


def listener_counts(world):
    """How many callbacks hang off every seam a recorder could tap."""
    counts = {"medium": len(world.medium._observers),
              "oracle": len(world.oracle._listeners),
              "controller": len(world.controller._listeners)}
    for node in world.nodes:
        counts[node.node_id, "accept"] = len(node._accept_listeners)
        for seam, attr in (("mute", "_listeners"), ("verbose", "_listeners"),
                           ("trust", "_listeners"),
                           ("overlay", "_status_listeners")):
            part = getattr(node, seam, None)
            if part is not None:
                counts[node.node_id, seam] = len(getattr(part, attr))
    return counts


@pytest.mark.parametrize("protocol", ["byzcast", "flooding"])
def test_observing_attaches_no_listener(protocol):
    """The observed world's seams carry exactly the unobserved world's
    callbacks: spans reach the context through ``obs.ACTIVE``, not
    through taps."""
    config = replace(small_observed_config("vectorized"), protocol=protocol)
    observed = listener_counts(build_world(config))
    assert observed == listener_counts(build_world(replace(config,
                                                           observe=None)))
    assert observed[0, "accept"] == 2        # metrics collector + oracle


def test_no_trace_event_is_built_per_span():
    """Not per span, not at all: an observed run builds no recorder."""
    world = build_world(small_observed_config("vectorized"))
    result = finish_world(world)
    assert result.trace["span_count"] == len(world.obs.spans) > 1000
    assert result.chaos_events > 0
    assert not hasattr(world, "recorder")


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
# A pickled mid-run world continues the trace and the verdicts
# ----------------------------------------------------------------------
@pytest.mark.checkpoint
def test_pickled_world_continues_both_streams(tmp_path):
    """Both streams of ``result``: the spans and the oracle's
    verdicts."""
    def run(directory, interrupt_at=None):
        # No checkpoint slicing here: a hand-made interruption skips
        # the boundary snapshots a real one writes.
        world = build_world(interleaved_config(directory, n=12,
                                               checkpoint=None))
        arm_verdicts(world)
        if interrupt_at is not None:
            with _instruments(world.profiler, world.obs):
                world.sim.run(until=interrupt_at)
            world = pickle.loads(pickle.dumps(world))
        result = finish_world(world)
        return (json.dumps(result.trace, sort_keys=True),
                json.dumps(result.violations, sort_keys=True))

    trace, violations = run(tmp_path / "whole")
    resumed_trace, resumed_violations = run(tmp_path / "resumed",
                                            interrupt_at=6.6)
    assert resumed_trace == trace
    assert resumed_violations == violations
    assert json.loads(violations)
