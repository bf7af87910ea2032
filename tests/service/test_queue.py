"""JobQueue: persistence, state machine, startup recovery."""

import json
import os

import pytest

from repro.service import JobQueue
from repro.service.queue import Job
from tests.prometheus import parse_exposition, sample_value

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


def _queued(queue):
    return sum(job.state == "queued" for job in queue.jobs())


class TestLargeJobTable:
    """Claim order and queue depth do not depend on how many finished
    jobs the table holds, and stay exact through every transition."""

    def _with_terminal_jobs(self, directory, count=2000,
                            first=999_001):
        # Ids cross j999999 -> j1000000, where name order and
        # submission order part.
        os.makedirs(directory)
        for seq in range(first, first + count):
            job = Job(id=f"j{seq:06d}", spec=SPEC, submitted=seq,
                      state=("done", "failed", "cancelled")[seq % 3])
            with open(os.path.join(directory, f"{job.id}.json"), "w") as f:
                json.dump(job.to_dict(), f)

    def test_fifo_and_depth_through_every_transition(self, tmp_path):
        from repro.service import CampaignService
        directory = str(tmp_path / "svc")
        self._with_terminal_jobs(os.path.join(directory, "jobs"))
        service = CampaignService(directory)
        queue = service.queue

        def depth(service):
            """The gauge, once the maintained count matches a scan."""
            assert service.queue.depth == _queued(service.queue)
            return sample_value(parse_exposition(service.metrics_text()),
                                "repro_queue_depth")

        assert len(queue.jobs()) == 2000 and depth(service) == 0
        a, b, c, d, e = (service.submit(SPEC) for _ in range(5))
        assert a.id == "j1001001" and depth(service) == 5
        assert queue.claim_next().id == a.id
        assert queue.claim_next().id == b.id
        assert queue.depth == 3
        service.cancel(c.id)                      # queued -> cancelled
        service.cancel(a.id)                      # running: flag only
        assert depth(service) == 2
        # b goes back to the queue ahead of d and e.
        queue.update(b.id, state="queued")
        assert queue.depth == 3
        assert queue.claim_next().id == b.id
        # A restart requeues both running jobs, oldest first.
        reborn = CampaignService(directory)
        queue = reborn.queue
        assert depth(reborn) == 4
        assert [getattr(queue.claim_next(), "id", None)
                for _ in range(5)] == [a.id, b.id, d.id, e.id, None]
        assert queue.depth == 0 and _queued(queue) == 0
        assert queue.get(a.id).cancel_requested is False

    def test_restart_loads_jobs_in_submission_order(self, tmp_path):
        directory = str(tmp_path)
        for seq in (999_999, 1_000_000, 1_000_001):
            job = Job(id=f"j{seq:06d}", spec=SPEC, submitted=seq,
                      state="running")
            with open(os.path.join(directory, f"{job.id}.json"), "w") as f:
                json.dump(job.to_dict(), f)
        recovered = JobQueue(directory).requeue_running()
        assert [job.id for job in recovered] \
            == ["j999999", "j1000000", "j1000001"]

    def test_job_files_are_compact_sorted_json(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(SPEC)
        with open(os.path.join(str(tmp_path), f"{job.id}.json")) as f:
            text = f.read()
        assert text == json.dumps(job.to_dict(), sort_keys=True)
        assert Job.from_dict(json.loads(text)) == job
