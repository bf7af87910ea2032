"""JobQueue: persistence, state machine, startup recovery."""

import json
import os

import pytest

from repro.service import JobQueue

pytestmark = pytest.mark.service

SPEC = {"protocols": ["byzcast"], "seeds": [1]}


class TestQueueBasics:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first = queue.submit(SPEC)
        second = queue.submit(SPEC)
        assert first.id == "j000001"
        assert second.id == "j000002"
        assert [job.id for job in queue.jobs()] == [first.id, second.id]

    def test_jobs_persist_across_restart(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        queue.update(job.id, state="done", executed=3)
        reopened = JobQueue(str(tmp_path))
        again = reopened.get(job.id)
        assert again.state == "done"
        assert again.executed == 3
        # Ids keep counting from where the dead process stopped.
        assert reopened.submit(SPEC).id == "j000002"

    def test_job_files_are_valid_json(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        path = os.path.join(str(tmp_path), f"{job.id}.json")
        with open(path) as handle:
            assert json.load(handle)["state"] == "queued"

    def test_claim_next_is_fifo_and_flips_to_running(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first = queue.submit(SPEC)
        queue.submit(SPEC)
        claimed = queue.claim_next()
        assert claimed.id == first.id
        assert claimed.state == "running"
        assert queue.claim_next().id == "j000002"
        assert queue.claim_next() is None


class TestCancel:
    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        assert queue.cancel(job.id).state == "cancelled"

    def test_cancel_running_sets_flag(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        queue.claim_next()
        cancelled = queue.cancel(job.id)
        assert cancelled.state == "running"
        assert cancelled.cancel_requested

    def test_cancel_terminal_is_noop(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        queue.update(job.id, state="done")
        assert queue.cancel(job.id).state == "done"
        assert not queue.get(job.id).cancel_requested

    def test_cancel_unknown_returns_none(self, tmp_path):
        assert JobQueue(str(tmp_path)).cancel("j999999") is None


class TestRecovery:
    def test_requeue_running_on_restart(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        queue.claim_next()
        queue.cancel(job.id)                      # pending cancel too
        reopened = JobQueue(str(tmp_path))
        recovered = reopened.requeue_running()
        assert [j.id for j in recovered] == [job.id]
        fresh = reopened.get(job.id)
        assert fresh.state == "queued"
        assert not fresh.cancel_requested


class TestDamagedJobFiles:
    """A job file cut short or written by another ``Job`` schema is
    quarantined; the service still starts and never reuses its id."""

    def _service_dir_with(self, tmp_path, damage):
        from repro.service import CampaignService
        directory = str(tmp_path / "svc")
        first = CampaignService(directory)
        kept = first.queue.submit(SPEC)
        damaged = first.queue.submit(SPEC)
        path = os.path.join(directory, "jobs", f"{damaged.id}.json")
        damage(path)
        return directory, kept, path

    def _restart(self, directory, kept, path):
        from repro.service import CampaignService
        with pytest.warns(RuntimeWarning, match="quarantined corrupt job"):
            service = CampaignService(directory)
        assert [job.id for job in service.queue.jobs()] == [kept.id]
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # The quarantined id is never handed out again.
        assert service.queue.submit(SPEC).id == "j000003"
        assert JobQueue(os.path.dirname(path)).submit(SPEC).id \
            == "j000004"

    def test_truncated_job_file_is_quarantined(self, tmp_path):
        def truncate(path):
            with open(path, "rb+") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        self._restart(*self._service_dir_with(tmp_path, truncate))

    def test_job_file_with_unknown_key_is_quarantined(self, tmp_path):
        def add_key(path):
            with open(path) as handle:
                data = json.load(handle)
            data["priority"] = 1
            with open(path, "w") as handle:
                json.dump(data, handle)
        self._restart(*self._service_dir_with(tmp_path, add_key))
