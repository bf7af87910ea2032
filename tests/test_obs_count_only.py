"""An observed run whose span stream nothing reads counts spans only.

A campaign record keeps ``span_count``, ``dropped_spans`` and the
``spans.<phase>`` counters, never the stream, so campaign workers run
observed configs with ``spans_in_result`` off; without an oracle (which
cross-references violations to spans) the context then builds no
:class:`~repro.obs.context.Span` at all.  Records, their keys and the
oracle's violation details come out the same either way.
"""

import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.fuzz import TargetSpec
from repro.obs import ObsConfig
from repro.obs import context as obs_context
from repro.service.spec import SweepSpec
from repro.sim import (
    Campaign,
    CheckpointConfig,
    CheckpointError,
    ExperimentConfig,
    build_world,
    config_key,
    finish_world,
    load_checkpoint,
    result_to_record,
    run_experiment,
    write_checkpoint,
)
from repro.sim.campaign import _run_record
from repro.sim.checkpoint import CHECKPOINT_VERSION, checkpoint_path
from repro.sim.experiment import _instruments
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

pytestmark = pytest.mark.obs

#: The service benchmark's cold sweep at seed 1 (byzcast, n=30, mute in
#: {0, 2} x four seeds, observed).
SVC_SWEEP = {"protocol": "byzcast", "param": "mute", "values": [0, 2],
             "seeds": [1, 2, 3, 4], "n": 30, "messages": 3,
             "interval": 1.0, "warmup": 5.0, "drain": 8.0, "observe": True}

#: Observe settings whose counts differ from the default's.
VARIANTS = {
    "default": ObsConfig(),
    "capacity": ObsConfig(capacity=300),
    "capacity0": ObsConfig(capacity=0),
    "phases": ObsConfig(phases=("tx", "rx", "deliver")),
    "spans_off": ObsConfig(spans=False),
    "metrics_off": ObsConfig(metrics=False, sample_period=0.25),
}


def small_config(observe, **overrides):
    return ExperimentConfig(
        scenario=ScenarioConfig(n=12, seed=5,
                                adversaries=AdversaryMix.mute(1)),
        observe=observe, warmup=3.0, message_count=2,
        message_interval=1.0, drain=5.0, **overrides)


def streamed_record(config):
    """The record built from a run that keeps its span stream."""
    assert config.observe.spans_in_result
    record = result_to_record(config, run_experiment(config))
    record.pop("runtime")
    return record


def worker_record(config):
    """The record a campaign worker builds for ``config``."""
    key, record = _run_record((config_key(config), config))
    assert key == record["key"]
    record.pop("runtime")
    return record


def sha(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


@pytest.fixture
def built_spans(monkeypatch):
    """The phase of every :class:`Span` constructed while it is active."""
    phases = []

    class CountingSpan(obs_context.Span):
        __slots__ = ()

        def __init__(self, *args):
            phases.append(args[3])
            super().__init__(*args)

    monkeypatch.setattr(obs_context, "Span", CountingSpan)
    return phases


# ----------------------------------------------------------------------
# Records do not depend on whether the stream was kept
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", SweepSpec.from_dict(SVC_SWEEP).expand(),
                         ids=lambda config: config_key(config)[:8])
def test_svc_sweep_records_equal(config):
    streamed = streamed_record(config)
    assert streamed["metrics"]["span_count"] > 0
    assert worker_record(config) == streamed


@pytest.mark.parametrize("observe", VARIANTS.values(), ids=VARIANTS.keys())
def test_variant_records_equal(observe):
    config = small_config(observe)
    streamed = streamed_record(config)
    assert worker_record(config) == streamed
    # The record's config block still reads as given.
    assert streamed["config"]["observe"]["spans_in_result"] is True


@pytest.mark.parametrize("observe", VARIANTS.values(), ids=VARIANTS.keys())
def test_counts_agree_with_the_stream(observe):
    kept = build_world(small_config(observe))
    kept_trace = finish_world(kept).trace
    counted = build_world(small_config(
        replace(observe, spans_in_result=False)))
    counted_trace = finish_world(counted).trace
    assert counted.obs.spans == []
    assert kept_trace.pop("spans") == kept.obs.span_dicts()
    assert counted_trace == kept_trace
    assert kept_trace["span_count"] == len(kept.obs.spans)
    if observe.capacity is not None:
        assert kept_trace["span_count"] == observe.capacity
        assert kept_trace["dropped_spans"] > 0


# ----------------------------------------------------------------------
# Campaign workers build no spans
# ----------------------------------------------------------------------
def test_campaign_worker_builds_no_spans(tmp_path, built_spans):
    config = small_config(ObsConfig())
    executed, _ = Campaign(str(tmp_path)).run([config])
    assert executed == 1
    assert built_spans == []
    record = Campaign(str(tmp_path)).load(config)
    assert record["metrics"]["span_count"] > 0
    # The patched constructor does count a run that keeps its stream.
    result = run_experiment(config)
    assert len(built_spans) == result.trace["span_count"]


#: Violation lists of the fuzzer's planted-bug runner (observe with
#: ``spans_in_result=False`` and an oracle), taken before workers
#: stopped building spans: each violation's ``span`` detail names the
#: last span of the offending node.
VIOLATION_PINS = {"byzcast": (6, "d91f0df4c03e1949"),
                  "flooding": (4, "83fcabf0f3ac3732")}


@pytest.mark.parametrize("protocol", sorted(VIOLATION_PINS))
def test_oracle_violation_spans_unchanged(protocol):
    schedule = FaultSchedule(events=(
        FaultEvent(time=0.5, node=9, action="crash"),
        FaultEvent(time=1.5, node=9, action="restart")))
    target = TargetSpec(protocol=protocol, runner="broken_recovery")
    assert not target.experiment_config(schedule).observe.spans_in_result
    result = target.run(schedule)
    assert all("span" in violation["detail"]
               for violation in result.violations)
    assert (result.invariant_violations,
            sha(result.violations)) == VIOLATION_PINS[protocol]


# ----------------------------------------------------------------------
# Checkpoints of a counting world
# ----------------------------------------------------------------------
def test_sliced_and_resumed_counting_world_gives_same_record(tmp_path):
    config = small_config(ObsConfig(spans_in_result=False))
    baseline = worker_record(config)

    sliced = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    record = worker_record(sliced)
    assert {**record, "config": None} == {**baseline, "config": None}

    world = build_world(sliced)
    with _instruments(world.profiler, world.obs):
        world.sim.run(until=5.0)
    assert world.obs.spans == [] and world.obs.span_dicts() == []
    path = write_checkpoint(world, config_key(sliced), str(tmp_path))
    resumed = load_checkpoint(path, expect_key=config_key(sliced))
    record = result_to_record(sliced, finish_world(resumed))
    record.pop("runtime")
    assert resumed.obs.spans == []
    assert {**record, "config": None} == {**baseline, "config": None}


def test_v9_observed_snapshot_is_refused_and_run_restarts(tmp_path):
    """A version-9 observed world pickles an ``ObsContext`` without the
    stream flag; its version number alone refuses it."""
    assert CHECKPOINT_VERSION == 10
    config = small_config(ObsConfig())
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = streamed_record(config)

    world = build_world(ck)
    with _instruments(world.profiler, world.obs):
        world.sim.run(until=5.0)
    del world.obs._keep_stream
    path = checkpoint_path(str(tmp_path), config_key(ck))
    with open(path, "wb") as handle:
        pickle.dump({"version": 9, "key": config_key(ck), "world": world},
                    handle)
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint(path)
    record = streamed_record(ck)
    assert {**record, "config": None} == {**baseline, "config": None}
