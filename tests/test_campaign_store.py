"""Regression tests for the hardened campaign result store.

Each class pins one of the store bugs fixed for the campaign service:
corrupt records crashing every reader, ``force=True`` double-running
duplicate configs inside one call, the parallel runner reporting
``executed`` counts it never verified, and ``parallel_map`` silently
ignoring ``workers`` when handed a ``pool``.
"""

import json
import multiprocessing
import os

import pytest

from repro.sim.campaign import (
    Campaign,
    CampaignError,
    config_key,
    parallel_map,
)
from repro.sim.experiment import ExperimentConfig
from repro.workloads.scenarios import ScenarioConfig

FAST = dict(message_count=1, message_interval=1.0, warmup=4.0, drain=6.0)


def fast_config(seed=1, n=8):
    return ExperimentConfig(scenario=ScenarioConfig(n=n, seed=seed),
                            **FAST)


def record_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".json"))


# ----------------------------------------------------------------------
# Corrupt records: skip-and-quarantine, never crash
# ----------------------------------------------------------------------
class TestCorruptRecordQuarantine:
    def _plant_corrupt(self, campaign, key="00deadbeef000000",
                       payload='{"key": "truncated...'):
        path = os.path.join(campaign.directory, f"{key}.json")
        with open(path, "w") as handle:
            handle.write(payload)
        return path

    def test_records_skips_and_quarantines_corrupt_file(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        good = os.path.join(campaign.directory, "fffe000000000000.json")
        with open(good, "w") as handle:
            json.dump({"key": "fffe000000000000", "protocol": "byzcast"},
                      handle)
        corrupt = self._plant_corrupt(campaign)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            records = campaign.records()
        assert [r["key"] for r in records] == ["fffe000000000000"]
        assert not os.path.exists(corrupt)
        assert os.path.exists(corrupt + ".corrupt")
        # A second pass is clean: the corpse no longer matches *.json.
        assert [r["key"] for r in campaign.records()] \
            == ["fffe000000000000"]

    def test_load_quarantines_and_returns_none(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        config = fast_config()
        key = config_key(config)
        corrupt = self._plant_corrupt(campaign, key=key)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert campaign.load(config) is None
        assert os.path.exists(corrupt + ".corrupt")
        assert campaign.load_key(key) is None     # quarantined == absent

    def test_quarantined_config_is_recomputed(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        config = fast_config()
        assert campaign.run([config]) == (1, 0)
        path = os.path.join(campaign.directory,
                            f"{config_key(config)}.json")
        with open(path, "w") as handle:
            handle.write("not json at all")
        with pytest.warns(RuntimeWarning):
            assert campaign.load(config) is None
        # The record is gone from the store, so the next run redoes it
        # and the reloaded record is whole again.
        assert campaign.run([config]) == (1, 0)
        assert campaign.load(config)["key"] == config_key(config)

    def test_non_object_record_is_quarantined(self, tmp_path):
        from repro.service.store import ResultStore
        campaign = Campaign(str(tmp_path))
        corrupt = self._plant_corrupt(campaign, payload="[]")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert ResultStore(str(tmp_path)).summaries() == []
        assert os.path.exists(corrupt + ".corrupt")

    def test_empty_record_file_is_quarantined(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        corrupt = self._plant_corrupt(campaign, payload="")
        with pytest.warns(RuntimeWarning):
            assert campaign.records() == []
        assert os.path.exists(corrupt + ".corrupt")


# ----------------------------------------------------------------------
# force=True must not double-run duplicates within one call
# ----------------------------------------------------------------------
class TestForceDedupesWithinCall:
    def test_duplicate_configs_run_once_under_force(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        config = fast_config()
        executed, skipped = campaign.run([config, config], force=True)
        assert (executed, skipped) == (1, 1)
        assert record_files(campaign.directory) \
            == [f"{config_key(config)}.json"]

    def test_duplicate_configs_run_once_under_force_parallel(self,
                                                             tmp_path):
        campaign = Campaign(str(tmp_path))
        configs = [fast_config(seed=1), fast_config(seed=1),
                   fast_config(seed=2)]
        executed, skipped = campaign.run(configs, force=True, workers=2)
        assert (executed, skipped) == (2, 1)

    def test_force_still_reruns_persisted_records(self, tmp_path):
        campaign = Campaign(str(tmp_path))
        config = fast_config()
        assert campaign.run([config]) == (1, 0)
        assert campaign.run([config], force=True) == (1, 0)

    def test_pending_keys_every_config_and_keeps_first_occurrences(
            self, tmp_path):
        campaign = Campaign(str(tmp_path))
        stored, fresh = fast_config(seed=1), fast_config(seed=2)
        campaign.run([stored])
        batch = [stored, fresh, fresh]
        keys, pending = campaign.pending(batch)
        assert keys == [config_key(config) for config in batch]
        assert pending == [(config_key(fresh), fresh)]
        _, forced = campaign.pending(batch, force=True)
        assert forced == [(config_key(stored), stored),
                          (config_key(fresh), fresh)]


# ----------------------------------------------------------------------
# executed must count records actually written
# ----------------------------------------------------------------------
from repro.sim.campaign import _run_record as _real_run_record


def _fail_on_seed_2(task):
    """Worker body that dies on the marked config (module-level so it
    pickles into pool workers; binds the unpatched runner)."""
    key, config = task
    if config.scenario.seed == 2:
        raise RuntimeError("worker exploded on seed 2")
    return _real_run_record(task)


class TestExecutedCountsPersistedRecords:
    def test_serial_failure_surfaces_with_partial_count(self, tmp_path,
                                                        monkeypatch):
        import repro.sim.campaign as campaign_module
        real = campaign_module.run_experiment

        def flaky(config):
            if config.scenario.seed == 2:
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(campaign_module, "run_experiment", flaky)
        campaign = Campaign(str(tmp_path))
        configs = [fast_config(seed=1), fast_config(seed=2),
                   fast_config(seed=3)]
        with pytest.raises(CampaignError) as excinfo:
            campaign.run(configs)
        assert excinfo.value.executed == 1
        assert len(record_files(campaign.directory)) == 1
        # Resume picks up the remainder once the fault is gone.
        monkeypatch.setattr(campaign_module, "run_experiment", real)
        assert campaign.run(configs) == (2, 1)

    def test_parallel_failure_counts_only_written_records(self, tmp_path,
                                                          monkeypatch):
        import repro.sim.campaign as campaign_module
        monkeypatch.setattr(campaign_module, "_run_record",
                            _fail_on_seed_2)
        campaign = Campaign(str(tmp_path))
        configs = [fast_config(seed=1), fast_config(seed=2),
                   fast_config(seed=3)]
        with pytest.raises(CampaignError) as excinfo:
            campaign.run(configs, workers=2)
        # Results stream back in task order: seed 1 landed before the
        # seed-2 explosion, so exactly one record is on disk and the
        # error's count matches the directory — not len(pending).
        assert excinfo.value.executed == 1
        assert len(record_files(campaign.directory)) \
            == excinfo.value.executed

    def test_parallel_failure_names_the_failing_config(self, tmp_path,
                                                       monkeypatch):
        import repro.sim.campaign as campaign_module
        monkeypatch.setattr(campaign_module, "_run_record",
                            _fail_on_seed_2)
        campaign = Campaign(str(tmp_path))
        configs = [fast_config(seed=1), fast_config(seed=2),
                   fast_config(seed=3)]
        with pytest.raises(CampaignError) as excinfo:
            campaign.run(configs, workers=2)
        assert f"[{config_key(configs[1])}]" in str(excinfo.value)

    def test_error_carries_skipped_count(self, tmp_path, monkeypatch):
        import repro.sim.campaign as campaign_module
        campaign = Campaign(str(tmp_path))
        done = fast_config(seed=5)
        assert campaign.run([done]) == (1, 0)

        def always_fail(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign_module, "run_experiment",
                            always_fail)
        with pytest.raises(CampaignError) as excinfo:
            campaign.run([done, fast_config(seed=6)])
        assert excinfo.value.skipped == 1
        assert excinfo.value.executed == 0


# ----------------------------------------------------------------------
# parallel_map argument contract
# ----------------------------------------------------------------------
def _double(value):
    return value * 2


class TestParallelMapContract:
    def test_pool_with_workers_is_rejected(self):
        with multiprocessing.Pool(processes=2) as pool:
            with pytest.raises(ValueError, match="not both"):
                parallel_map(_double, [1, 2, 3], workers=4, pool=pool)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            parallel_map(_double, [1], workers=0)

    def test_pooled_path_streams_in_task_order(self):
        seen = []
        with multiprocessing.Pool(processes=2) as pool:
            results = parallel_map(
                _double, list(range(8)), pool=pool,
                on_result=lambda task, result: seen.append((task,
                                                            result)))
        assert results == [i * 2 for i in range(8)]
        assert seen == [(i, i * 2) for i in range(8)]

    def test_owned_pool_path_streams_in_task_order(self):
        seen = []
        results = parallel_map(
            _double, list(range(8)), workers=2,
            on_result=lambda task, result: seen.append((task, result)))
        assert results == [i * 2 for i in range(8)]
        assert seen == [(i, i * 2) for i in range(8)]

    def test_serial_path_matches(self):
        assert parallel_map(_double, [3, 4]) == [6, 8]
