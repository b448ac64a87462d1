"""Lease-queue semantics: priority order, requeue fairness, worker death.

All timing goes through the injectable clock, so lease expiry is tested
without sleeping.
"""

import pytest

from repro.experiments.spec import MacSpec, TrialSpec
from repro.service.jobs import new_job
from repro.service.queue import InMemoryJobQueue, LeaseLost


def _trial(tid="t/0"):
    return TrialSpec(tid, (0, 1), ((0, 1),), MacSpec.of("dcf"), 0, 4.0, 1.0)


def _job(name, priority=0):
    return new_job(name, [_trial()], priority=priority, now=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(clock):
    return InMemoryJobQueue(default_lease_s=10.0, clock=clock)


def drain(queue, worker="w"):
    names = []
    while True:
        job = queue.lease(worker, timeout=0)
        if job is None:
            return names
        names.append(job.name)
        queue.ack(job.job_id, worker)


class TestOrdering:
    def test_fifo_within_priority(self, queue):
        for name in ("a", "b", "c"):
            queue.submit(_job(name))
        assert drain(queue) == ["a", "b", "c"]

    def test_higher_priority_first(self, queue):
        queue.submit(_job("low", priority=0))
        queue.submit(_job("high", priority=5))
        queue.submit(_job("mid", priority=2))
        assert drain(queue) == ["high", "mid", "low"]

    def test_requeue_keeps_original_sequence(self, queue):
        first = _job("first")
        queue.submit(first)
        queue.submit(_job("second"))
        leased = queue.lease("w", timeout=0)
        assert leased.name == "first"
        queue.submit(_job("third"))
        queue.requeue(first.job_id, "w")
        # A preempted job resumes ahead of everything submitted after it.
        assert drain(queue) == ["first", "second", "third"]

    def test_max_queued_priority(self, queue):
        assert queue.max_queued_priority() is None
        queue.submit(_job("low", priority=1))
        queue.submit(_job("high", priority=9))
        assert queue.max_queued_priority() == 9
        job = queue.lease("w", timeout=0)
        assert job.priority == 9
        assert queue.max_queued_priority() == 1


class TestLeaseLifecycle:
    def test_leased_job_is_invisible_to_other_workers(self, queue):
        job = _job("only")
        queue.submit(job)
        assert queue.lease("w1", timeout=0) is job
        assert queue.lease("w2", timeout=0) is None

    def test_lease_timeout_returns_none(self, queue, clock):
        assert queue.lease("w", timeout=0) is None

    def test_double_submit_rejected_until_acked(self, queue):
        job = _job("dup")
        queue.submit(job)
        with pytest.raises(ValueError):
            queue.submit(job)
        queue.lease("w", timeout=0)
        with pytest.raises(ValueError):
            queue.submit(job)
        queue.ack(job.job_id, "w")
        queue.submit(job)  # terminal entries may be resubmitted

    def test_ack_requires_a_lease(self, queue):
        job = _job("x")
        queue.submit(job)
        with pytest.raises(ValueError):
            queue.ack(job.job_id, "w")
        with pytest.raises(ValueError):
            queue.requeue(job.job_id, "w")

    def test_queued_count(self, queue):
        queue.submit(_job("a"))
        queue.submit(_job("b"))
        assert queue.queued_count() == 2
        queue.lease("w", timeout=0)
        assert queue.queued_count() == 1


class TestWorkerDeath:
    def test_expired_lease_is_reaped_back_to_queue(self, queue, clock):
        job = _job("orphan")
        queue.submit(job)
        queue.lease("w-dead", timeout=0, lease_s=5.0)
        clock.advance(4.9)
        assert queue.reap_expired() == []
        clock.advance(0.2)
        assert queue.reap_expired() == [job.job_id]
        assert queue.lease("w-alive", timeout=0) is job

    def test_heartbeat_extends_the_lease(self, queue, clock):
        job = _job("slow")
        queue.submit(job)
        queue.lease("w", timeout=0, lease_s=5.0)
        clock.advance(4.0)
        queue.extend(job.job_id, "w", lease_s=5.0)
        clock.advance(4.0)  # 8s elapsed; would have expired without extend
        assert queue.reap_expired() == []
        clock.advance(1.1)
        assert queue.reap_expired() == [job.job_id]


class TestCancel:
    def test_cancel_queued_removes_immediately(self, queue):
        job = _job("doomed")
        queue.submit(job)
        assert queue.cancel(job.job_id) is True
        assert job.cancel_requested
        assert queue.lease("w", timeout=0) is None

    def test_cancel_leased_flags_for_the_boundary(self, queue):
        job = _job("running")
        queue.submit(job)
        queue.lease("w", timeout=0)
        assert queue.cancel(job.job_id) is False
        assert job.cancel_requested

    def test_cancel_unknown_is_a_noop(self, queue):
        assert queue.cancel("nope") is False


class TestLeaseOwnership:
    def test_verbs_reject_a_worker_that_is_not_the_holder(self, queue):
        job = _job("owned")
        queue.submit(job)
        queue.lease("w1", timeout=0)
        with pytest.raises(LeaseLost):
            queue.ack(job.job_id, "w2")
        with pytest.raises(LeaseLost):
            queue.requeue(job.job_id, "w2")
        with pytest.raises(LeaseLost):
            queue.extend(job.job_id, "w2")
        queue.ack(job.job_id, "w1")  # the rightful holder still can

    def test_stale_holder_fails_fast_after_reap(self, queue, clock):
        """A worker whose lease expired and was re-granted must get an
        error from every verb — not silently drop or requeue the job the
        new holder is running."""
        job = _job("stale")
        queue.submit(job)
        queue.lease("w-old", timeout=0, lease_s=5.0)
        clock.advance(5.1)
        assert queue.reap_expired() == [job.job_id]
        assert queue.lease("w-new", timeout=0) is job
        with pytest.raises(LeaseLost):
            queue.extend(job.job_id, "w-old")
        with pytest.raises(LeaseLost):
            queue.requeue(job.job_id, "w-old")
        with pytest.raises(LeaseLost):
            queue.ack(job.job_id, "w-old")
        queue.ack(job.job_id, "w-new")


class TestMemory:
    def test_acked_and_cancelled_entries_are_dropped(self, queue):
        """Terminal entries are deleted outright, so a long-lived queue
        does not grow with the history of every job it ever carried."""
        done, doomed = _job("done"), _job("doomed")
        queue.submit(done)
        queue.submit(doomed)
        queue.lease("w", timeout=0)
        queue.ack(done.job_id, "w")
        assert queue.cancel(doomed.job_id) is True
        assert queue._entries == {}


class TestFencingTokens:
    def test_tokens_strictly_increase_across_grants(self, queue, clock):
        """One queue-wide counter: every grant — any job, any worker,
        re-grants included — gets a strictly larger token."""
        a, b = _job("a"), _job("b")
        queue.submit(a)
        queue.submit(b)
        queue.lease("w1", timeout=0, lease_s=5.0)
        t_a = queue.lease_token(a.job_id, "w1")
        queue.lease("w2", timeout=0, lease_s=5.0)
        t_b = queue.lease_token(b.job_id, "w2")
        assert t_b > t_a > 0
        clock.advance(5.1)
        queue.reap_expired()
        queue.lease("w1", timeout=0)
        queue.lease("w2", timeout=0)
        assert queue.current_token(a.job_id) > t_b
        assert queue.current_token(b.job_id) > t_b

    def test_same_worker_re_grant_fails_token_check(self, queue, clock):
        """The partition case the worker-id check cannot catch: the same
        worker loses the lease and wins it back — identity matches, but
        writes carrying the old grant's token must be rejected."""
        job = _job("j")
        queue.submit(job)
        queue.lease("w", timeout=0, lease_s=5.0)
        old = queue.lease_token(job.job_id, "w")
        clock.advance(5.1)
        queue.reap_expired()
        assert queue.lease("w", timeout=0) is job  # same worker re-wins
        new = queue.lease_token(job.job_id, "w")
        assert new > old
        for verb in (queue.ack, queue.requeue):
            with pytest.raises(LeaseLost):
                verb(job.job_id, "w", token=old)
        with pytest.raises(LeaseLost):
            queue.extend(job.job_id, "w", token=old)
        queue.extend(job.job_id, "w", token=new)
        queue.ack(job.job_id, "w", token=new)

    def test_lease_bumps_job_attempt(self, queue, clock):
        job = _job("j")
        assert job.attempt == 0
        queue.submit(job)
        queue.lease("w", timeout=0, lease_s=5.0)
        assert job.attempt == 1
        clock.advance(5.1)
        queue.reap_expired()
        queue.lease("w2", timeout=0)
        assert job.attempt == 2

    def test_advance_tokens_seeds_past_floor(self, queue):
        """Restart recovery: the counter is in-memory but the fenced rows
        are durable — re-seeded from the run-table's max, the first grant
        after a restart still outranks every persisted row."""
        queue.advance_tokens(100)
        job = _job("j")
        queue.submit(job)
        queue.lease("w", timeout=0)
        assert queue.lease_token(job.job_id, "w") > 100

    def test_advance_tokens_never_rewinds(self, queue):
        a, b = _job("a"), _job("b")
        queue.submit(a)
        queue.submit(b)
        queue.lease("w1", timeout=0)
        t_a = queue.lease_token(a.job_id, "w1")
        queue.advance_tokens(0)  # floor behind the counter: a no-op
        queue.lease("w2", timeout=0)
        assert queue.lease_token(b.job_id, "w2") > t_a

    def test_lease_token_requires_holding_the_lease(self, queue):
        job = _job("j")
        queue.submit(job)
        queue.lease("w", timeout=0)
        with pytest.raises(LeaseLost):
            queue.lease_token(job.job_id, "other")
        assert queue.current_token("unknown-job") == 0
