"""The per-record wall-clock ``runtime`` block and its invariants.

The block is host-dependent by design, so the tests here pin the two
things that must NOT vary with it: the campaign ``config_key`` (runtime
lives in the result, not the config) and byte-identity comparisons
(which strip it via :func:`strip_runtime`).
"""

import json

import pytest

from repro.sim import config_key, result_to_record, run_experiment
from repro.sim.experiment import ExperimentConfig
from repro.telemetry.runtime import (
    peak_rss_kb,
    runtime_block,
    strip_runtime,
)
from repro.workloads.scenarios import ScenarioConfig

SMALL = dict(message_count=1, message_interval=1.0, warmup=4.0, drain=6.0)


def small_config(seed=3, **overrides):
    return ExperimentConfig(scenario=ScenarioConfig(n=8, seed=seed),
                            **dict(SMALL, **overrides))


class TestRuntimeBlock:
    def test_shape_and_rate(self):
        block = runtime_block(2.0, events=400)
        assert block["wall_seconds"] == 2.0
        assert block["events"] == 400
        assert block["events_per_second"] == 200.0
        assert "profile" not in block

    def test_none_events_means_none_rate(self):
        block = runtime_block(1.0, events=None)
        assert block["events"] is None
        assert block["events_per_second"] is None

    def test_zero_wall_never_divides(self):
        assert runtime_block(0.0, events=10)["events_per_second"] is None

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0


class TestStripRuntime:
    def test_returns_copy_without_runtime(self):
        record = {"key": "k", "runtime": {"wall_seconds": 1.0}, "n": 8}
        stripped = strip_runtime(record)
        assert stripped == {"key": "k", "n": 8}
        assert "runtime" in record  # original untouched


class TestExperimentIntegration:
    def test_run_experiment_populates_runtime(self):
        result = run_experiment(small_config())
        runtime = result.runtime
        assert runtime["wall_seconds"] > 0
        assert runtime["events"] > 0
        assert runtime["events_per_second"] == pytest.approx(
            runtime["events"] / runtime["wall_seconds"], rel=1e-3)

    def test_profiled_record_stores_profile_once(self):
        config = small_config(profile=True)
        record = result_to_record(config, run_experiment(config))
        assert record["profile"]
        assert sorted(record["runtime"]) == [
            "events", "events_per_second", "peak_rss_kb", "wall_seconds"]

    def test_record_carries_runtime_but_key_ignores_it(self):
        config = small_config()
        record_a = result_to_record(config, run_experiment(config))
        record_b = result_to_record(config, run_experiment(config))
        assert record_a["runtime"]["wall_seconds"] > 0
        # Same config -> same key, whatever the host timing did.
        assert record_a["key"] == record_b["key"] == config_key(config)
        # And identical records once runtime is stripped.
        assert (json.dumps(strip_runtime(record_a), sort_keys=True)
                == json.dumps(strip_runtime(record_b), sort_keys=True))
