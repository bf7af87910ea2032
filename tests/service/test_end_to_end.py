"""Campaign service end-to-end: the acceptance criteria.

* Submitting an identical sweep spec twice performs zero recomputation —
  the second job is 100% cache hits keyed on ``config_key``.
* Service-produced record files are byte-identical to a serial
  ``Campaign.run`` over the same expanded configs.
* A killed worker's checkpoint is picked up on resubmission — the run
  resumes mid-simulation instead of restarting (proved by forbidding
  ``build_world``), and the finished record matches an uninterrupted
  run's modulo the config block.
* Failures and cancels surface with truthful partial accounting.
"""

import dataclasses
import json
import os
import time
import urllib.request

import pytest

from repro.obs import validate_chrome
from repro.service import CampaignService, SweepSpec
from repro.sim.campaign import Campaign, result_to_record
from repro.sim.checkpoint import CheckpointConfig, checkpoint_path, \
    config_key, write_checkpoint
from repro.sim.experiment import build_world, run_experiment

pytestmark = pytest.mark.service

SPEC = {"protocol": "byzcast", "param": "mute", "values": [0, 1],
        "seeds": [1, 2], "n": 10, "messages": 1, "interval": 1.0,
        "warmup": 4.0, "drain": 6.0}


def read_records(directory):
    """Parsed records by file name, minus the wall-clock ``runtime``
    block — host timing is never part of the determinism contract."""
    records = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            record = json.load(handle)
        record.pop("runtime", None)
        records[name] = record
    return records


class TestCacheAndByteIdentity:
    def test_resubmission_is_all_cache_hits(self, service):
        first = service.submit(SPEC)
        assert service.run_until_idle() == 1
        first = service.queue.get(first.id)
        assert first.state == "done"
        assert (first.total, first.cache_hits, first.executed) \
            == (4, 0, 4)

        second = service.submit(SPEC)
        assert service.run_until_idle() == 1
        second = service.queue.get(second.id)
        assert second.state == "done"
        assert (second.total, second.cache_hits, second.executed) \
            == (4, 4, 0)
        assert second.keys == first.keys
        assert service.stats()["records"] == 4

    def test_records_byte_identical_to_serial_campaign(self, service,
                                                       tmp_path):
        service.submit(SPEC)
        service.run_until_idle()

        reference = Campaign(str(tmp_path / "reference"))
        configs = SweepSpec.from_dict(SPEC).expand()
        assert reference.run(configs) == (4, 0)
        assert read_records(service.store.directory) \
            == read_records(reference.directory)

    def test_parallel_service_matches_serial_reference(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"), workers=4)
        service.submit(SPEC)
        service.run_until_idle()
        reference = Campaign(str(tmp_path / "reference"))
        reference.run(SweepSpec.from_dict(SPEC).expand())
        assert read_records(service.store.directory) \
            == read_records(reference.directory)

    def test_overlapping_sub_sweep_hits_shared_cache(self, service):
        service.submit(SPEC)
        service.run_until_idle()
        # A different spec whose grid overlaps half the previous one.
        overlap = dict(SPEC, values=[1, 2])
        job = service.submit(overlap)
        service.run_until_idle()
        job = service.queue.get(job.id)
        assert job.state == "done"
        assert job.total == 4
        assert job.cache_hits == 2       # mute=1 × seeds {1,2} reused
        assert job.executed == 2

    def test_within_job_duplicates_count_as_hits(self, service):
        duplicated = dict(SPEC, param="mute", values=[0, 0], seeds=[1])
        job = service.submit(duplicated)
        service.run_until_idle()
        job = service.queue.get(job.id)
        assert (job.total, job.cache_hits, job.executed) == (2, 1, 1)


class TestCheckpointResume:
    def test_killed_worker_resumes_from_snapshot(self, tmp_path,
                                                 monkeypatch):
        spec = {"protocol": "byzcast", "seeds": [17], "n": 8,
                "messages": 2, "interval": 1.5, "warmup": 3.0,
                "drain": 5.0}
        config = SweepSpec.from_dict(spec).expand()[0]
        key = config_key(config)
        baseline = result_to_record(config, run_experiment(config))
        baseline.pop("config")
        baseline.pop("runtime", None)

        service = CampaignService(str(tmp_path / "svc"), workers=1,
                                  checkpoint_every=1.0)
        # Simulate a SIGTERM-killed worker: a mid-run snapshot left in
        # the service store's checkpoint directory by a
        # checkpoint-attached run, exactly as the service launches them.
        ckpt_dir = os.path.join(service.store.directory, "checkpoints")
        interrupted = dataclasses.replace(
            config, checkpoint=CheckpointConfig(every=1.0,
                                                directory=ckpt_dir))
        world = build_world(interrupted)
        world.sim.run(until=4.5)
        write_checkpoint(world, key, ckpt_dir)

        # Resume must not rebuild the world from scratch.
        import repro.sim.experiment as experiment_module

        def forbid(config):
            raise AssertionError("resubmitted run rebuilt the world "
                                 "instead of resuming its checkpoint")

        monkeypatch.setattr(experiment_module, "build_world", forbid)
        job = service.submit(spec)
        service.run_until_idle()
        job = service.queue.get(job.id)
        assert job.state == "done", job.error
        assert job.executed == 1

        _, record = service.store.load_key(key)
        record.pop("config")
        record.pop("runtime", None)
        assert record == baseline
        assert not os.path.exists(checkpoint_path(ckpt_dir, key))

    def test_service_restart_requeues_and_finishes_via_cache(self,
                                                             tmp_path):
        directory = str(tmp_path / "svc")
        service = CampaignService(directory)
        job = service.submit(SPEC)
        service.run_until_idle()
        # A second job dies mid-flight: claimed (running) but the
        # process goes away before executing anything.
        second = service.submit(dict(SPEC, seeds=[1, 2, 3]))
        assert service.queue.claim_next().id == second.id

        reborn = CampaignService(directory)
        recovered = reborn.queue.get(second.id)
        assert recovered.state == "queued"
        assert reborn.run_until_idle() == 1
        finished = reborn.queue.get(second.id)
        assert finished.state == "done"
        # Everything the first job computed is reused.
        assert finished.total == 6
        assert finished.cache_hits == 4
        assert finished.executed == 2

    def test_job_queued_before_medium_key_removal_runs_to_done(self,
                                                               tmp_path):
        """``to_dict`` used to write ``"medium": "grid"`` into every job
        file; a queue directory holding such a job must still drain."""
        directory = str(tmp_path / "svc")
        job = CampaignService(directory).submit(SPEC)
        path = os.path.join(directory, "jobs", f"{job.id}.json")
        with open(path) as handle:
            stored = json.load(handle)
        stored["spec"]["medium"] = "grid"
        with open(path, "w") as handle:
            json.dump(stored, handle)

        upgraded = CampaignService(directory)
        assert upgraded.queue.get(job.id).spec["medium"] == "grid"
        assert upgraded.run_until_idle() == 1
        finished = upgraded.queue.get(job.id)
        assert (finished.state, finished.error) == ("done", None)
        assert finished.executed == 4


class TestFailureAndCancel:
    @pytest.mark.parametrize("poison", [
        {"n": "abc", "messages": 1},
        {"messages": "x"},
        {"param": "paths_required", "values": [0]},
    ])
    def test_poisoned_job_file_fails_and_scheduler_lives(self, service,
                                                         poison):
        """A job file is read back from disk, so it is outside input: a
        spec the submit path would refuse fails its job, and the
        scheduler thread goes on to the next one."""
        poisoned = service.queue.submit(poison)
        good = service.submit(dict(SPEC, values=[0], seeds=[1]))
        service.start(poll=0.05)
        try:
            deadline = time.monotonic() + 60.0
            while (service.queue.get(good.id).state != "done"
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert service.queue.get(good.id).state == "done"
            assert service.queue.get(poisoned.id).state == "failed"
            assert service._thread.is_alive()
        finally:
            service.stop(timeout=10.0)

    def test_unsatisfiable_spec_fails_cleanly(self, service):
        job = service.submit({"param": "n", "values": [1]})
        service.run_until_idle()
        job = service.queue.get(job.id)
        assert job.state == "failed"
        assert "at least 2 nodes" in job.error

    def test_worker_failure_keeps_partial_records(self, service,
                                                  monkeypatch):
        import repro.sim.campaign as campaign_module
        real = campaign_module.run_experiment

        def flaky(config):
            if config.scenario.seed == 2:
                raise RuntimeError("worker exploded")
            return real(config)

        monkeypatch.setattr(campaign_module, "run_experiment", flaky)
        spec = dict(SPEC, param=None, values=None, seeds=[1, 2, 3])
        spec = {k: v for k, v in spec.items() if v is not None}
        job = service.submit(spec)
        service.run_until_idle()
        job = service.queue.get(job.id)
        assert job.state == "failed"
        assert "worker exploded" in job.error
        assert job.executed == 1              # seed 1 persisted
        assert len(service.store.keys()) == 1

        # Resubmission after the fault clears picks up the remainder.
        monkeypatch.setattr(campaign_module, "run_experiment", real)
        retry = service.submit(spec)
        service.run_until_idle()
        retry = service.queue.get(retry.id)
        assert retry.state == "done"
        assert (retry.cache_hits, retry.executed) == (1, 2)

    def test_cancel_running_job_stops_at_chunk_boundary(self, service):
        job = service.submit(SPEC)
        claimed = service.queue.claim_next()
        assert claimed.id == job.id
        service.cancel(job.id)
        service._run_job(claimed)
        final = service.queue.get(job.id)
        assert final.state == "cancelled"
        assert final.executed == 0


class TestHttpEndToEnd:
    def test_observed_submission_serves_record_csv_and_trace(self,
                                                             server):
        service, base = server
        service.start(poll=0.05)
        spec = dict(SPEC, values=[0], seeds=[1], observe=True)
        request = urllib.request.Request(
            f"{base}/api/jobs", data=json.dumps(spec).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            job = json.load(response)

        deadline = time.monotonic() + 120.0
        while True:
            with urllib.request.urlopen(
                    f"{base}/api/jobs/{job['id']}") as response:
                job = json.load(response)
            if job["state"] in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.1)
        assert job["state"] == "done", job["error"]
        (key,) = job["keys"]

        # The record served over HTTP is the stored file, byte for byte.
        with urllib.request.urlopen(
                f"{base}/api/records/{key}") as response:
            assert response.headers["Content-Type"] == "application/json"
            served = response.read()
        with open(os.path.join(service.store.directory,
                               f"{key}.json"), "rb") as handle:
            assert served == handle.read()

        with urllib.request.urlopen(
                f"{base}/api/records/{key}/series.csv") as response:
            assert response.headers["Content-Type"].startswith(
                "text/csv")
            header = response.read().decode().splitlines()[0]
        assert header.split(",")[0] == "time"

        with urllib.request.urlopen(
                f"{base}/api/records/{key}/trace.json") as response:
            trace = json.load(response)
        assert validate_chrome(trace) == []
        assert any(event["ph"] == "C"
                   for event in trace["traceEvents"])

        with urllib.request.urlopen(f"{base}/api/stats") as response:
            stats = json.load(response)
        assert stats["records"] == 1
        assert stats["executed"] == 1
