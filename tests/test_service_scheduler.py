"""Scheduler supervision tests over stubbed job children.

The real ``_job_main`` runs a whole experiment; these tests replace
it (module attribute, so the forked child inherits the stub) with
tiny processes exercising one supervision path each: success, the
retry/degradation ladder, attempt exhaustion, interrupt-requeue,
drain, and cancellation.
"""

import json
import os
import signal
import time

import pytest

from repro.fi.executor import decorrelated_backoff
from repro.service.jobs import JobQueue
from repro.service.scheduler import (
    EXIT_INTERRUPTED,
    Scheduler,
    SchedulerConfig,
)
from repro.errors import ServiceError

SPEC = {"experiment": "table1", "scale": "test"}


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path)


@pytest.fixture
def queue(spool):
    with JobQueue(os.path.join(spool, "queue.db")) as q:
        yield q


def make_scheduler(spool, queue, **overrides):
    defaults = dict(
        budget=4,
        max_jobs=4,
        job_retries=2,
        backoff_base_s=0.01,
        backoff_seed=7,
        prewarm=False,
        stop_grace_s=5.0,
    )
    defaults.update(overrides)
    return Scheduler(spool, queue, SchedulerConfig(**defaults))


def run_until_terminal(scheduler, queue, job_id, timeout_s=20.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        scheduler.tick()
        job = queue.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal: {queue.get(job_id)}")


class TestSupervision:
    def test_success_marks_done(self, spool, queue, monkeypatch):
        def stub(job_id, spec, job_dir, width, results_db, attempt):
            with open(os.path.join(job_dir, "output.txt"), "w") as f:
                f.write("ok\n")
            os._exit(0)

        monkeypatch.setattr(
            "repro.service.scheduler._job_main", stub
        )
        scheduler = make_scheduler(spool, queue)
        job_id = queue.submit(SPEC)
        job = run_until_terminal(scheduler, queue, job_id)
        assert job.state == "done"
        assert job.attempts == 1
        assert queue.counters().get("jobs_done") == 1

    def test_retry_ladder_degrades_width(self, spool, queue, monkeypatch):
        """Attempt 1 fails at the granted width; attempt 2 runs at
        half; attempt 3 runs serial and succeeds — every step recorded
        honestly in the job row."""
        log = os.path.join(spool, "attempts.jsonl")

        def stub(job_id, spec, job_dir, width, results_db, attempt):
            with open(log, "a") as f:
                f.write(json.dumps({"attempt": attempt, "width": width}))
                f.write("\n")
            if attempt < 3:
                with open(os.path.join(job_dir, "error.txt"), "w") as f:
                    f.write(f"synthetic failure on attempt {attempt}\n")
                os._exit(1)
            os._exit(0)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(spool, queue, budget=4, max_jobs=1)
        job_id = queue.submit(dict(SPEC, jobs=4))
        job = run_until_terminal(scheduler, queue, job_id)
        assert job.state == "done"
        assert job.attempts == 3
        rows = [
            json.loads(line) for line in open(log).read().splitlines()
        ]
        assert [r["width"] for r in rows] == [4, 2, 1]
        assert job.workers == 1
        assert "serial" in job.degraded
        assert queue.counters().get("jobs_retried") == 2

    def test_exhausted_retries_fail_with_error(
        self, spool, queue, monkeypatch
    ):
        def stub(job_id, spec, job_dir, width, results_db, attempt):
            with open(os.path.join(job_dir, "error.txt"), "w") as f:
                f.write("Traceback ...\nValueError: it broke\n")
            os._exit(1)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(spool, queue, job_retries=1)
        job_id = queue.submit(SPEC)
        job = run_until_terminal(scheduler, queue, job_id)
        assert job.state == "failed"
        assert job.attempts == 2
        assert "ValueError: it broke" in job.error
        assert queue.counters().get("jobs_failed") == 1

    def test_interrupt_requeues_with_refund(
        self, spool, queue, monkeypatch
    ):
        flag = os.path.join(spool, "interrupted-once")

        def stub(job_id, spec, job_dir, width, results_db, attempt):
            if not os.path.exists(flag):
                open(flag, "w").close()
                os._exit(EXIT_INTERRUPTED)
            os._exit(0)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(spool, queue)
        job_id = queue.submit(SPEC)
        job = run_until_terminal(scheduler, queue, job_id)
        assert job.state == "done"
        # the interrupted attempt was refunded: only one on the books
        assert job.attempts == 1
        assert queue.counters().get("jobs_requeued") == 1

    def test_drain_requeues_running_jobs(self, spool, queue, monkeypatch):
        def stub(job_id, spec, job_dir, width, results_db, attempt):
            signal.signal(
                signal.SIGTERM, lambda *_: os._exit(EXIT_INTERRUPTED)
            )
            time.sleep(30)
            os._exit(0)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(spool, queue)
        job_id = queue.submit(SPEC)
        deadline = time.time() + 10
        while job_id not in scheduler._running and time.time() < deadline:
            scheduler.tick()
            time.sleep(0.02)
        assert scheduler.drain() == 1
        job = queue.get(job_id)
        assert job.state == "queued"
        assert job.attempts == 0  # drain refunds the attempt
        assert queue.counters().get("jobs_requeued") == 1

    def test_cancel_running_job(self, spool, queue, monkeypatch):
        def stub(job_id, spec, job_dir, width, results_db, attempt):
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            time.sleep(30)
            os._exit(0)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(spool, queue)
        job_id = queue.submit(SPEC)
        deadline = time.time() + 10
        while job_id not in scheduler._running and time.time() < deadline:
            scheduler.tick()
            time.sleep(0.02)
        queue.request_cancel(job_id)
        job = run_until_terminal(scheduler, queue, job_id)
        assert job.state == "cancelled"
        assert queue.counters().get("jobs_cancelled") == 1

    def test_retry_backoff_defers_the_claim(
        self, spool, queue, monkeypatch
    ):
        def stub(job_id, spec, job_dir, width, results_db, attempt):
            os._exit(1)

        monkeypatch.setattr("repro.service.scheduler._job_main", stub)
        scheduler = make_scheduler(
            spool, queue, job_retries=1, backoff_base_s=30.0
        )
        job_id = queue.submit(SPEC)
        deadline = time.time() + 10
        while not scheduler._not_before and time.time() < deadline:
            scheduler.tick()
            time.sleep(0.02)
        # first attempt failed; the retry is deferred into the future
        assert scheduler._not_before[job_id] > time.time()
        job = queue.get(job_id)
        assert job.state == "queued" and job.attempts == 1
        scheduler.tick()  # must not claim the deferred job
        assert job_id not in scheduler._running


class TestForkSafety:
    def test_fork_holds_the_queue_lock(self, spool, queue, monkeypatch):
        """A job child is forked only while no other thread can be
        inside sqlite: the status endpoint's reads take the same lock,
        and a child forked mid-read would block on sqlite's inherited
        mutexes for good."""
        import multiprocessing.process
        import threading

        held = []
        real_start = multiprocessing.process.BaseProcess.start

        def probe():
            free = queue.lock.acquire(blocking=False)
            if free:
                queue.lock.release()
            held.append(not free)

        def start(process):
            other = threading.Thread(target=probe)
            other.start()
            other.join()
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        monkeypatch.setattr(
            "repro.service.scheduler._job_main",
            lambda *args: os._exit(0),
        )
        scheduler = make_scheduler(spool, queue)
        job = run_until_terminal(scheduler, queue, queue.submit(SPEC))
        assert job.state == "done"
        assert held == [True]


class TestFairShare:
    def test_single_job_gets_whole_budget(self, spool, queue):
        scheduler = make_scheduler(spool, queue, budget=8)
        assert scheduler._grant(100) == 8

    def test_queued_jobs_shrink_the_share(self, spool, queue):
        scheduler = make_scheduler(spool, queue, budget=8, max_jobs=4)
        for _ in range(3):
            queue.submit(SPEC)
        # 0 running + me + 3 queued = 4 ways over budget 8
        assert scheduler._grant(100) == 2

    def test_grant_respects_request(self, spool, queue):
        scheduler = make_scheduler(spool, queue, budget=8)
        assert scheduler._grant(3) == 3

    def test_grant_is_at_least_one(self, spool, queue):
        scheduler = make_scheduler(spool, queue, budget=2, max_jobs=4)
        for _ in range(8):
            queue.submit(SPEC)
        assert scheduler._grant(1) == 1


class TestConfigValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ServiceError):
            SchedulerConfig(budget=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(max_jobs=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(job_retries=-1)


class TestDecorrelatedBackoff:
    def test_bounds(self):
        import random

        rng = random.Random(1)
        prev = 0.5
        for _ in range(200):
            value = decorrelated_backoff(0.5, prev, rng, cap=30.0)
            assert 0.5 <= value <= 30.0
            prev = value

    def test_seeded_stream_is_reproducible(self):
        import random

        def stream(seed):
            rng = random.Random(seed)
            values, prev = [], 0.5
            for _ in range(10):
                prev = decorrelated_backoff(0.5, prev, rng, cap=30.0)
                values.append(prev)
            return values

        assert stream(42) == stream(42)
        assert stream(42) != stream(43)

    def test_zero_base_disables_backoff(self):
        import random

        assert decorrelated_backoff(0.0, 1.0, random.Random(1)) == 0.0
