"""A spec's key list is derived once per process.

The scheduler remembers the keys each spec it expanded produced.  A
later job with the same spec whose keys are all stored finishes with
one existence scan and one queue write after the claim; anything less
than all stored — a deleted or quarantined record, a restarted service,
a spec not seen before — goes through expansion and
``Campaign.pending`` as before.
"""

import logging
import os

import pytest

from repro.service import CampaignService, JobQueue, SweepSpec
from tests.prometheus import parse_exposition, sample_value

pytestmark = pytest.mark.service

SPEC = {"protocol": "byzcast", "param": "mute", "values": [0, 1],
        "seeds": [1, 2], "n": 10, "messages": 1, "interval": 1.0,
        "warmup": 4.0, "drain": 6.0}


def run(service, spec):
    job = service.submit(spec)
    assert service.run_until_idle() == 1
    return service.queue.get(job.id)


def counts(job):
    return job.state, job.total, job.cache_hits, job.executed


@pytest.fixture
def writes(monkeypatch):
    """The state of every job file the queue writes, in order."""
    saved = []
    save = JobQueue._save

    def recording(queue, job):
        saved.append(job.state)
        save(queue, job)

    monkeypatch.setattr(JobQueue, "_save", recording)
    return saved


class TestAllHitResubmit:
    def test_all_hit_resubmit_makes_three_queue_writes(self, service,
                                                       writes):
        first = run(service, SPEC)
        # Submit, claim, grid counts, one chunk, done.
        assert writes == ["queued", "running", "running", "running",
                          "done"]
        del writes[:]
        again = run(service, SPEC)
        assert writes == ["queued", "running", "done"]
        assert counts(again) == ("done", 4, 4, 0)
        assert again.keys == first.keys
        assert not again.cancel_requested and again.error is None

    def test_all_hit_resubmit_expands_nothing(self, service, monkeypatch):
        first = run(service, SPEC)
        monkeypatch.setattr(SweepSpec, "expand", None)
        again = run(service, SPEC)
        assert counts(again) == ("done", 4, 4, 0)
        assert again.keys == first.keys

    def test_counters_and_events_are_unchanged(self, service, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        run(service, SPEC)
        run(service, SPEC)
        families = parse_exposition(service.metrics_text())
        assert sample_value(families, "repro_configs_total") == 8
        assert sample_value(families, "repro_cache_hits_total") == 4
        assert sample_value(families, "repro_jobs_completed_total") == 2
        assert sample_value(families, "repro_queue_depth") == 0
        second = [record.repro_fields for record in caplog.records
                  if getattr(record, "repro_fields", {}).get("job_id")
                  == "j000002"]
        assert [fields["event"] for fields in second] \
            == ["job.submitted", "job.started", "job.completed"]
        started, completed = second[1], second[2]
        assert (started["total"], started["cache_hits"],
                started["pending"]) == (4, 4, 0)
        assert (completed["total"], completed["cache_hits"],
                completed["executed"]) == (4, 4, 0)

    def test_duplicate_keys_in_one_spec_stay_hits(self, service, writes):
        duplicated = dict(SPEC, values=[0, 0], seeds=[1])
        assert counts(run(service, duplicated)) == ("done", 2, 1, 1)
        del writes[:]
        assert counts(run(service, duplicated)) == ("done", 2, 2, 0)
        assert writes == ["queued", "running", "done"]


class TestMissingRecordsFallBack:
    def test_deleted_record_is_recomputed_alone(self, service):
        first = run(service, SPEC)
        victim = first.keys[2]
        path = os.path.join(service.store.directory, f"{victim}.json")
        stored = service.store.load_key(victim)[1]
        os.remove(path)
        again = run(service, SPEC)
        assert counts(again) == ("done", 4, 3, 1)
        assert again.keys == first.keys
        rerun = service.store.load_key(victim)[1]
        # The same simulation again: only the wall-clock block differs.
        stored.pop("runtime")
        rerun.pop("runtime")
        assert rerun == stored
        # The list is whole again: the next resubmit is all hits.
        assert counts(run(service, SPEC)) == ("done", 4, 4, 0)

    def test_quarantined_record_is_recomputed_alone(self, service):
        first = run(service, SPEC)
        victim = first.keys[1]
        path = os.path.join(service.store.directory, f"{victim}.json")
        with open(path, "w") as handle:
            handle.write('{"key": ')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert service.store.load_key(victim) is None
        assert os.path.exists(path + ".corrupt")
        again = run(service, SPEC)
        assert counts(again) == ("done", 4, 3, 1)
        assert service.store.load_key(victim)[1]["key"] == victim

    def test_overlapping_spec_reports_its_own_hits(self, service,
                                                   writes):
        run(service, SPEC)
        overlap = dict(SPEC, values=[1, 2])
        job = run(service, overlap)
        assert counts(job) == ("done", 4, 2, 2)
        # Both specs are now remembered and wholly stored.
        del writes[:]
        assert counts(run(service, SPEC)) == ("done", 4, 4, 0)
        assert counts(run(service, overlap)) == ("done", 4, 4, 0)
        assert writes == ["queued", "running", "done"] * 2
        # A record only the overlapping spec produced goes missing:
        # that spec, and only it, recomputes one config.
        os.remove(os.path.join(service.store.directory,
                               f"{job.keys[-1]}.json"))
        assert counts(run(service, SPEC)) == ("done", 4, 4, 0)
        assert counts(run(service, overlap)) == ("done", 4, 3, 1)


class TestRestart:
    def test_restarted_service_starts_with_no_key_lists(self, tmp_path,
                                                        monkeypatch):
        directory = str(tmp_path / "svc")
        first = run(CampaignService(directory), SPEC)
        reborn = CampaignService(directory)
        assert reborn._spec_keys == {}
        # Keys written to job files are not trusted: the first job of
        # the new process expands its spec.
        expanded = []
        expand = SweepSpec.expand

        def counting(spec):
            expanded.append(spec)
            return expand(spec)

        monkeypatch.setattr(SweepSpec, "expand", counting)
        assert counts(run(reborn, SPEC)) == ("done", 4, 4, 0)
        assert len(expanded) == 1
        assert counts(run(reborn, SPEC)) == ("done", 4, 4, 0)
        assert len(expanded) == 1
        assert reborn.queue.get("j000002").keys == first.keys
