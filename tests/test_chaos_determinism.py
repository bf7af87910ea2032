"""Property tests: chaos never breaks determinism.

The contract under test: a seeded experiment with an arbitrary fault
schedule produces byte-identical result records on every invocation —
serial or pooled across worker processes, vectorized or scalar medium.
Schedules are drawn from the hypothesis generators in
:mod:`tests.helpers`, so every fault action is exercised in arbitrary
combinations and orders.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultEvent, FaultSchedule, OracleConfig
from repro.core.config import ProtocolConfig
from repro.core.node import NodeStackConfig
from repro.sim import ExperimentConfig, run_experiment, run_many
from repro.sim.campaign import result_to_record
from repro.workloads.scenarios import ScenarioConfig

from tests.helpers import fault_schedules

pytestmark = pytest.mark.chaos

N = 9
RELAXED = dict(deadline=None,
               suppress_health_check=[HealthCheck.too_slow,
                                      HealthCheck.data_too_large])

#: Hot-path caches explicitly OFF (the defaults have them ON, so the
#: rest of this module already exercises the cached paths).
CACHES_OFF = NodeStackConfig(
    protocol=ProtocolConfig(verify_cache_size=0, wire_cache=False))


def small_config(schedule, seed, stack=None):
    extra = {"stack": stack} if stack is not None else {}
    return ExperimentConfig(
        scenario=ScenarioConfig(n=N, seed=seed),
        chaos=schedule, oracle=OracleConfig(),
        warmup=4.0, message_count=2, message_interval=1.5, drain=6.0,
        **extra)


def on_scalar_medium(config):
    """The same run on the scalar reference medium (the oracle leg)."""
    return dataclasses.replace(config, medium="brute")


def canonical(config, result):
    """The byte string a campaign would persist for this run, minus the
    wall-clock ``runtime`` block (host timing is never deterministic)."""
    record = result_to_record(config, result)
    record.pop("runtime", None)
    return json.dumps(record, sort_keys=True)


@settings(max_examples=8, **RELAXED)
@given(schedule=fault_schedules(N, horizon=5.0, max_events=5),
       seed=st.integers(min_value=1, max_value=10_000))
def test_repeat_runs_byte_identical(schedule, seed):
    config = small_config(schedule, seed)
    first = canonical(config, run_experiment(config))
    second = canonical(config, run_experiment(config))
    assert first == second


@settings(max_examples=3, **RELAXED)
@given(schedule=fault_schedules(N, horizon=5.0, max_events=4),
       seed=st.integers(min_value=1, max_value=10_000))
def test_worker_pool_matches_serial(schedule, seed):
    configs = [small_config(schedule, seed),
               small_config(schedule, seed + 1)]
    serial = [canonical(c, r)
              for c, r in zip(configs, run_many(configs, workers=1))]
    pooled = [canonical(c, r)
              for c, r in zip(configs, run_many(configs, workers=2))]
    assert serial == pooled


@settings(max_examples=4, **RELAXED)
@given(schedule=fault_schedules(N, horizon=5.0, max_events=4),
       seed=st.integers(min_value=1, max_value=10_000))
def test_grid_medium_matches_brute_force(schedule, seed):
    config = small_config(schedule, seed)
    assert canonical(config, run_experiment(config)) \
        == canonical(config, run_experiment(on_scalar_medium(config)))


@settings(max_examples=4, **RELAXED)
@given(schedule=fault_schedules(N, horizon=5.0, max_events=4),
       seed=st.integers(min_value=1, max_value=10_000))
def test_cache_toggle_preserves_records(schedule, seed):
    """The hot-path caches are pure memoization: a run with the verify
    and wire caches disabled produces the same record as the default
    cached run, up to the config block (which names the knobs) and the
    key (its hash)."""
    cached_config = small_config(schedule, seed)
    uncached_config = small_config(schedule, seed, stack=CACHES_OFF)

    def stripped(config):
        record = result_to_record(config, run_experiment(config))
        record.pop("key")
        record.pop("config")
        record.pop("runtime", None)
        return json.dumps(record, sort_keys=True)

    assert stripped(cached_config) == stripped(uncached_config)


@settings(max_examples=3, **RELAXED)
@given(schedule=fault_schedules(N, horizon=5.0, max_events=4),
       seed=st.integers(min_value=1, max_value=10_000))
def test_grid_vs_brute_with_caches_off(schedule, seed):
    """The existing vectorized-vs-scalar test runs with caches on (the
    default); this one pins the same equivalence on the uncached path."""
    config = small_config(schedule, seed, stack=CACHES_OFF)
    assert canonical(config, run_experiment(config)) \
        == canonical(config, run_experiment(on_scalar_medium(config)))


def test_worker_pool_matches_serial_with_cache_matrix():
    """workers=1 vs workers=4 byte-identity across the cache on/off
    matrix in one task list (caches are per-process module/node state;
    records must not depend on which worker ran which config)."""
    schedule = FaultSchedule(events=(
        FaultEvent(time=1.0, node=7, action="mute"),
        FaultEvent(time=2.0, node=8, action="crash"),
        FaultEvent(time=3.0, node=8, action="restart"),
    ))
    configs = [small_config(schedule, 31),
               small_config(schedule, 31, stack=CACHES_OFF),
               small_config(schedule, 32),
               small_config(schedule, 32, stack=CACHES_OFF)]
    serial = [canonical(c, r)
              for c, r in zip(configs, run_many(configs, workers=1))]
    pooled = [canonical(c, r)
              for c, r in zip(configs, run_many(configs, workers=4))]
    assert serial == pooled


#: A fixed mixed-fault schedule for the observed-determinism matrix.
OBSERVED_SCHEDULE = FaultSchedule(events=(
    FaultEvent(time=1.0, node=7, action="mute"),
    FaultEvent(time=2.0, node=6, action="deaf"),
    FaultEvent(time=3.0, node=8, action="crash"),
    FaultEvent(time=4.0, node=8, action="restart"),
))


def observed(config):
    from dataclasses import replace

    from repro.obs import ObsConfig

    return replace(config, observe=ObsConfig())


def trace_bytes(result):
    """The span stream + metric series as one canonical byte string —
    the byte-identity target of the observability determinism matrix
    (the raw merged recorder stream is *not* compared: checkpoint events
    legitimately differ between resumed and uninterrupted runs)."""
    assert result.trace is not None
    return json.dumps(result.trace, sort_keys=True)


def test_observed_traces_identical_across_worker_counts():
    """workers=1 vs workers=4: span streams, metric series and campaign
    records of observed runs are byte-identical."""
    configs = [observed(small_config(OBSERVED_SCHEDULE, seed))
               for seed in (41, 42, 43, 44)]
    serial = run_many(configs, workers=1)
    pooled = run_many(configs, workers=4)
    assert [trace_bytes(r) for r in serial] == \
        [trace_bytes(r) for r in pooled]
    assert [canonical(c, r) for c, r in zip(configs, serial)] == \
        [canonical(c, r) for c, r in zip(configs, pooled)]


def test_observed_traces_identical_grid_vs_brute():
    """Vectorized vs scalar medium: identical span streams — including
    the radio-level collision/loss spans the media emit."""
    config = observed(small_config(OBSERVED_SCHEDULE, 47))
    vectorized = run_experiment(config)
    scalar = run_experiment(on_scalar_medium(config))
    assert trace_bytes(vectorized) == trace_bytes(scalar)
    assert canonical(config, vectorized) == canonical(config, scalar)


def test_observation_does_not_perturb_the_run():
    """An observed run and a plain run of the same config produce the
    same record (modulo the metrics block observation adds and the config
    block that names the knob): recording must never change the run."""
    plain_config = small_config(OBSERVED_SCHEDULE, 53)
    observed_config = observed(plain_config)

    def stripped(config, result):
        record = result_to_record(config, result)
        record.pop("config")
        record.pop("metrics")
        record.pop("runtime", None)
        return json.dumps(record, sort_keys=True)

    plain = run_experiment(plain_config)
    traced = run_experiment(observed_config)
    assert stripped(plain_config, plain) == \
        stripped(observed_config, traced)


def test_fuzz_campaign_byte_identical_across_repeats_and_workers(tmp_path):
    """The fuzzing loop rides on the same determinism contract: a
    fixed-seed campaign produces byte-identical coverage counters and
    corpus files on every invocation and across workers=1 vs 4."""
    from repro.fuzz import FuzzConfig, TargetSpec, fuzz

    def campaign(tag, workers):
        directory = tmp_path / tag
        config = FuzzConfig(
            target=TargetSpec(runner="broken_recovery"),
            iterations=32, batch=8, fuzz_seed=1, workers=workers,
            corpus_dir=str(directory))
        report = fuzz(config).to_dict()
        for failure in report["failures"]:
            failure.pop("path", None)  # embeds the per-tag tmp dir
        files = {p.name: p.read_bytes()
                 for p in directory.glob("*.json")}
        return json.dumps(report, sort_keys=True), files

    serial_report, serial_corpus = campaign("w1", 1)
    pooled_report, pooled_corpus = campaign("w4", 4)
    repeat_report, repeat_corpus = campaign("w1b", 1)
    assert serial_report == pooled_report == repeat_report
    assert serial_corpus == pooled_corpus == repeat_corpus


def test_acceptance_schedule_deterministic_across_workers():
    """The issue's acceptance shape: one schedule touching every fault
    family, identical records across two invocations and across
    workers=1 vs workers=4."""
    schedule = FaultSchedule(events=(
        FaultEvent(time=0.5, node=5, action="attacker_start",
                   params={"kind": "request_flood", "rate_hz": 5.0}),
        FaultEvent(time=1.0, node=7, action="mute"),
        FaultEvent(time=1.5, node=8, action="crash"),
        FaultEvent(time=2.0, node=6, action="deaf"),
        FaultEvent(time=2.5, node=4, action="tx_power",
                   params={"factor": 0.6}),
        FaultEvent(time=3.0, node=3, action="behavior",
                   params={"kind": "forging"}),
        FaultEvent(time=3.5, node=7, action="recover"),
        FaultEvent(time=4.0, node=8, action="restart"),
        FaultEvent(time=4.2, node=6, action="hear"),
        FaultEvent(time=4.5, node=5, action="attacker_stop"),
        FaultEvent(time=5.0, node=3, action="recover"),
    ))
    configs = [small_config(schedule, seed) for seed in (21, 22, 23, 24)]
    once = [canonical(c, r)
            for c, r in zip(configs, run_many(configs, workers=1))]
    again = [canonical(c, r)
             for c, r in zip(configs, run_many(configs, workers=1))]
    pooled = [canonical(c, r)
              for c, r in zip(configs, run_many(configs, workers=4))]
    assert once == again
    assert once == pooled
