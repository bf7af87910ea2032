"""Determinism and resume/skip semantics of the parallel campaign runner.

The acceptance bar: a ``workers=4`` campaign must leave the result
directory byte-identical to a serial run of the same sweep — same config
hashes (file names), same JSON bytes — and resuming an interrupted
campaign in parallel must execute only the missing configurations.
"""

import dataclasses
import json
import os

import pytest

from repro.cli import build_parser
from repro.service import SweepSpec
from repro.sim.campaign import Campaign, config_key
from repro.sim.experiment import ExperimentConfig, run_experiment, run_many
from repro.sim.sweeps import average_results
from repro.workloads.scenarios import ScenarioConfig

FAST = dict(message_count=1, message_interval=1.0, warmup=4.0, drain=6.0)


def make_configs(count=4, n=10):
    return [ExperimentConfig(scenario=ScenarioConfig(n=n, seed=seed),
                             **FAST)
            for seed in range(1, count + 1)]


def read_records(directory):
    """Map file name -> parsed record for every file in a campaign dir,
    minus the wall-clock ``runtime`` block (host timing is never part of
    the determinism contract)."""
    records = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            record = json.load(handle)
        record.pop("runtime", None)
        records[name] = record
    return records


class TestParallelCampaign:
    def test_workers4_records_byte_identical_to_serial(self, tmp_path):
        configs = make_configs(4)
        serial = Campaign(str(tmp_path / "serial"))
        parallel = Campaign(str(tmp_path / "parallel"))
        assert serial.run(configs) == (4, 0)
        assert parallel.run(configs, workers=4) == (4, 0)
        serial_records = read_records(serial.directory)
        parallel_records = read_records(parallel.directory)
        assert set(serial_records) == set(parallel_records)
        assert set(serial_records) == {f"{config_key(c)}.json"
                                       for c in configs}
        for name in serial_records:
            assert serial_records[name] == parallel_records[name], name

    def test_interrupted_campaign_resumes_only_missing(self, tmp_path):
        """Simulate an interrupt: the first two configs completed, the
        process died, and the campaign is re-run with workers=2."""
        configs = make_configs(5)
        campaign = Campaign(str(tmp_path / "camp"))
        assert campaign.run(configs[:2]) == (2, 0)   # ... then "crash"
        executed, skipped = campaign.run(configs, workers=2)
        assert (executed, skipped) == (3, 2)
        reference = Campaign(str(tmp_path / "ref"))
        reference.run(configs)
        assert read_records(campaign.directory) \
            == read_records(reference.directory)

    def test_parallel_rerun_skips_everything(self, tmp_path):
        configs = make_configs(3)
        campaign = Campaign(str(tmp_path / "camp"))
        campaign.run(configs, workers=2)
        assert campaign.run(configs, workers=2) == (0, 3)

    def test_force_reruns_in_parallel(self, tmp_path):
        configs = make_configs(3)
        campaign = Campaign(str(tmp_path / "camp"))
        campaign.run(configs)
        before = read_records(campaign.directory)
        executed, skipped = campaign.run(configs, force=True, workers=3)
        assert (executed, skipped) == (3, 0)
        assert read_records(campaign.directory) == before

    def test_invalid_workers_rejected(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        with pytest.raises(ValueError):
            campaign.run(make_configs(1), workers=0)
        with pytest.raises(ValueError):
            run_many(make_configs(1), workers=0)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--param", "n",
                                       "--values", "8", "--workers", "-1"])


def sans_runtime(result):
    """The result with its wall-clock ``runtime`` block cleared — the
    only field allowed to differ between serial and parallel runs."""
    return dataclasses.replace(result, runtime=None)


class TestParallelSweepAndRunMany:
    def test_run_many_matches_serial_in_order(self):
        configs = make_configs(3, n=8)
        serial = [run_experiment(config) for config in configs]
        parallel = run_many(configs, workers=3)
        assert [sans_runtime(r) for r in parallel] \
            == [sans_runtime(r) for r in serial]

    def test_run_sweep_workers_matches_serial(self):
        """A spec's n × seed grid averages to the same points whether
        ``run_many`` runs it serially or over four workers."""
        configs = SweepSpec(param="n", values=(8, 10), seeds=(1, 2),
                            messages=1, interval=1.0, warmup=4.0,
                            drain=6.0).expand()
        serial = run_many(configs)
        parallel = run_many(configs, workers=4)
        for i in (0, 2):
            assert sans_runtime(average_results(serial[i:i + 2])) \
                == sans_runtime(average_results(parallel[i:i + 2]))


class TestCliWorkers:
    def test_sweep_output_identical_with_workers(self):
        import io

        from repro.cli import main

        argv = ["sweep", "--param", "n", "--values", "8,10",
                "--seeds", "1", "--messages", "1", "--warmup", "4",
                "--drain", "6"]
        serial_out, parallel_out = io.StringIO(), io.StringIO()
        assert main(argv, out=serial_out) == 0
        assert main(argv + ["--workers", "2"], out=parallel_out) == 0
        assert serial_out.getvalue() == parallel_out.getvalue()
