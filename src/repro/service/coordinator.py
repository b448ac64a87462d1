"""The coordinator: leases jobs to workers and records what they upload.

One coordinator owns a data directory::

    <data_dir>/runs.sqlite        the run-table (trial rows + job table)
    <data_dir>/stores/<job>.json  per-job fingerprinted ResultStores
    <data_dir>/faults/            exactly-once tokens for fault plans

It executes nothing itself: every trial runs in a
:class:`~repro.service.worker.Worker`, either a ``cli work`` daemon over
HTTP or one of the in-process workers that :meth:`Coordinator.start` and
:meth:`Coordinator.run_once` drive over
:class:`~repro.service.transport.InProcessTransport`. Both reach the same
verbs, so each policy has one home. A **lease** grants the best queued
job under a fresh fencing token after one sweep of its store and
run-table (:meth:`Coordinator._begin_run`), so a worker only receives
trials that still need executing. A **record** verifies worker and token
while extending the lease, deduplicates by (trial_id, fingerprint), then
appends the result to the store's journal (fsynced) and commits the
run-table row with the job's counter in one sqlite transaction — the
per-trial cost does not grow with the job, and counters agree with rows.
The reply to every record and heartbeat carries the **boundary
decision** (:meth:`Coordinator.boundary`): continue, yield to a
strictly-higher-priority job (the worker requeues, its progress already
persisted) or cancel (the worker acks). The terminal state is computed at
**ack** from the counters verified uploads built.

Failure policy (see ``repro.errors`` and DESIGN.md "Failure domains")
travels to the workers in the register handshake
(:meth:`Coordinator.handshake`): only *transient* failures retry, with
capped exponential backoff, against a per-trial cap and a per-job budget.
Permanent failures — and transient ones once the budget is gone, and
trials that hang past the watchdog or kill their pool worker twice — are
**quarantined**: recorded with status ``quarantined`` and their error
class, counted, and skipped, so the job finishes ``done_partial``.

Crash-resume: every state transition is upserted into the run-table, so a
coordinator that died mid-job leaves a ``running`` row behind.
:meth:`Coordinator.resume_open_jobs` re-queues those on startup; the next
lease's sweep serves trials whose (id, fingerprint) already sit in the
job's ResultStore from cache — bit-identical, never re-executed — and
skips trials a previous incarnation quarantined. If the run-table failed
its integrity check at open, its trial rows are rebuilt from the flat
stores before anything else runs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.experiments.executor import ResultStore
from repro.experiments.spec import ExperimentSpec, TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service.faults import FaultPlan
from repro.service.jobs import (
    CANCELLED,
    DONE,
    DONE_PARTIAL,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    SweepJob,
    job_from_experiment,
)
from repro.service.queue import InMemoryJobQueue, LeaseLost
from repro.service.runtable import RunTable
from repro.service.transport import CANCEL, CONTINUE, YIELD, InProcessTransport
from repro.service.worker import POLICY, Worker

#: How long an idle in-process worker waits per lease poll — also how
#: quickly it notices ``stop`` and reaps expired leases while standing down.
LOCAL_POLL_S = 0.2


class Coordinator:
    """Owns the queue, the run-table, and the in-process workers.

    The policy arguments travel to every worker in the handshake:
    ``trial_jobs`` > 1 fans a job's trials over a process pool in chunks,
    ``trial_timeout_s`` arms the per-trial watchdog, ``retry_budget`` caps
    *transient* retries per job and ``max_retries`` per trial.
    ``fault_plan`` threads a :class:`~repro.service.faults.FaultPlan`
    through every layer (store, run-table, lease, and the in-process
    workers' transport and trials) — None costs nothing. ``sleep`` is
    injectable so retry-backoff tests need no real waiting. An
    out-of-process worker silent for ``worker_ttl_s`` counts as gone.
    """

    def __init__(
        self,
        data_dir: str,
        queue: Optional[InMemoryJobQueue] = None,
        runtable: Optional[RunTable] = None,
        trial_jobs: int = 1,
        max_retries: int = 2,
        retry_budget: int = 16,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        lease_s: float = 300.0,
        trial_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] = None,
        worker_ttl_s: float = 15.0,
    ):
        self.data_dir = data_dir
        os.makedirs(os.path.join(data_dir, "stores"), exist_ok=True)
        self._fault_plan = fault_plan
        self._fault_hook = None if fault_plan is None else fault_plan.fire
        self.queue = queue or InMemoryJobQueue(default_lease_s=lease_s)
        self.runtable = runtable or RunTable(
            os.path.join(data_dir, "runs.sqlite"),
            sleep=sleep,
            fault_hook=self._fault_hook,
        )
        if self.runtable.rebuilt_from:
            # The previous db failed quick_check and was quarantined: the
            # flat stores are the surviving source of truth — replay them.
            self.runtable.rebuild_from_stores(
                os.path.join(data_dir, "stores")
            )
        # Fencing tokens must stay monotonic across process restarts: the
        # queue's counter is in-memory, but the run-table rows (and their
        # tokens) are durable. Seed the counter past the largest persisted
        # token or a resumed job's fresh leases would be "stale" against
        # its own pre-crash rows.
        self.queue.advance_tokens(self.runtable.max_token())
        self.trial_jobs = trial_jobs
        self.max_retries = max_retries
        self.retry_budget = retry_budget
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.lease_s = lease_s
        self.trial_timeout_s = trial_timeout_s
        self._sleep = sleep
        self._testbed_factory = testbed_factory or (lambda seed: Testbed(seed=seed))
        self._testbeds: Dict[int, Testbed] = {}
        self.worker_ttl_s = worker_ttl_s
        self._jobs: Dict[str, SweepJob] = {}
        #: Live idempotency-key -> job_id map (the run-table holds the
        #: durable half; this catches submit races before the first upsert).
        self._idem: Dict[str, str] = {}
        #: Out-of-process worker registry: worker_id -> monotonic
        #: last-seen. A worker is *active* while its last contact
        #: (register, lease poll, heartbeat, upload) is younger than
        #: ``worker_ttl_s``. In-process workers never register.
        self._remote_workers: Dict[str, float] = {}
        #: Per-job lease context: job_id -> {worker_id, token, store,
        #: lock}. Cleared on ack/requeue; a reaped lease leaves a stale
        #: entry that the queue's lease check rejects before it is used.
        self._remote: Dict[str, dict] = {}
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Submission / lifecycle
    # ------------------------------------------------------------------
    def submit(self, job: SweepJob) -> str:
        """Queue a job. If the job carries an idempotency key already seen
        (live or in the run-table), the original job's id is returned and
        nothing new is queued — a client retrying a submit whose response
        was lost gets exactly one job."""
        key = job.idempotency_key
        if key:
            existing = self._dedup(key, job.job_id)
            if existing is not None:
                return existing
        job.state = QUEUED
        with self._cond:
            self._jobs[job.job_id] = job
            if key:
                self._idem[key] = job.job_id
        self.runtable.upsert_job(job)
        self.queue.submit(job)
        self._notify()
        return job.job_id

    def _dedup(self, key: str, job_id: str) -> Optional[str]:
        """The job id previously submitted under ``key`` (None if unseen).
        The submitting job's own id never matches itself — that is what
        lets ``resume_open_jobs`` resubmit a keyed job it finds in the
        run-table."""
        with self._cond:
            live = self._idem.get(key)
        if live is not None and live != job_id:
            return live
        row = self.runtable.job_by_idempotency_key(key)
        if row is not None and row.job_id != job_id:
            return row.job_id
        return None

    def submit_experiment(
        self,
        spec: ExperimentSpec,
        priority: int = 0,
        testbed_seed: int = 1,
        idempotency_key: Optional[str] = None,
    ) -> str:
        job = job_from_experiment(
            spec, priority=priority, testbed_seed=testbed_seed
        )
        job.idempotency_key = idempotency_key
        return self.submit(job)

    def resume_open_jobs(self) -> List[str]:
        """Re-queue every job a previous process left queued or running.

        Progress counters are recomputed when the job is leased again:
        trials that completed before the crash are served from the job's
        fingerprinted store, and trials a previous incarnation quarantined
        are re-counted from their run-table rows — neither re-executes.
        Until then the job keeps its persisted counters, which match its
        rows."""
        resumed = []
        for job in self.runtable.open_jobs():
            if job.job_id in self._jobs:
                continue
            job.state = QUEUED
            self.submit(job)
            resumed.append(job.job_id)
        return resumed

    def start(self, workers: int = 1) -> None:
        """Run ``workers`` in-process workers (``worker-0``, ...) on daemon
        threads. They stand down while any out-of-process worker is
        fresh."""
        for i in range(workers):
            worker = self._local_worker(f"worker-{i}")
            t = threading.Thread(
                target=worker.run,
                name=f"sweep-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: workers finish their current trial, requeue their
        job, and exit. Queued/requeued jobs stay open in the run-table for
        the next coordinator (the same path a crash takes, minus the mess)."""
        self._stop.set()
        self._notify()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    def cancel(self, job_id: str) -> bool:
        """Request cancellation. Queued jobs cancel immediately; running
        jobs cancel at their next trial boundary. False if unknown or
        already terminal."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            job = self.runtable.get_job(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return False
            # Known only to the run-table (not yet resumed): mark it
            # cancelled durably so resume_open_jobs never revives it.
            self._finalize(job, CANCELLED)
            return True
        if job.state in TERMINAL_STATES:
            return False
        job.cancel_requested = True
        if self.queue.cancel(job_id):
            self._finalize(job, CANCELLED)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def testbed(self, seed: int) -> Testbed:
        """The (cached) testbed for a seed — building one is expensive, and
        every job against the same seed shares it."""
        with self._cond:
            tb = self._testbeds.get(seed)
        if tb is None:
            tb = self._testbed_factory(seed)
            with self._cond:
                self._testbeds.setdefault(seed, tb)
                tb = self._testbeds[seed]
        return tb

    def job_progress(self, job_id: str) -> Optional[dict]:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            job = self.runtable.get_job(job_id)
        return None if job is None else job.progress()

    def list_jobs(self, limit: int = 50) -> List[dict]:
        """Newest-first job progress dicts (live state wins over rows)."""
        with self._cond:
            live = dict(self._jobs)
        merged = {j.job_id: j for j in self.runtable.list_jobs(limit=limit)}
        merged.update(live)
        jobs = sorted(merged.values(), key=lambda j: j.submitted_at, reverse=True)
        return [j.progress() for j in jobs[:limit]]

    def wait(
        self,
        job_id: str,
        cursor: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Optional[dict]:
        """Long-poll a job: block until its progress advances past
        ``cursor`` (completed + failed + quarantined trials) or it reaches
        a terminal state, up to ``timeout`` seconds. ``cursor=None``
        returns the current snapshot immediately. None if unknown."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            progress = self.job_progress(job_id)
            if progress is None:
                return None
            if progress["state"] in TERMINAL_STATES or cursor is None:
                return progress
            settled = (progress["completed"] + progress["failed"]
                       + progress["quarantined"])
            if settled > cursor:
                return progress
            with self._cond:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return progress
                self._cond.wait(0.5 if remaining is None else min(remaining, 0.5))

    # ------------------------------------------------------------------
    # In-process workers
    # ------------------------------------------------------------------
    def run_once(self, worker_id: str = "worker-inline") -> Optional[SweepJob]:
        """Lease and run at most one job on an in-process worker (tests,
        batch drains). Returns the job, or None if nothing was leased."""
        worker = self._local_worker(worker_id)
        worker.register()
        if worker.run_one() is None:
            return None
        job_id = worker.client.leased_job_id
        with self._cond:
            job = self._jobs.get(job_id)
        return job if job is not None else self.runtable.get_job(job_id)

    def _local_worker(self, worker_id: str) -> Worker:
        worker = Worker(
            InProcessTransport(self, self._stop),
            worker_id=worker_id,
            poll_s=LOCAL_POLL_S,
            fault_plan=self._fault_plan,
            sleep=self._sleep,
            testbed_factory=self.testbed,
        )
        # Sharing the stop event makes stop() a drain: every in-process
        # worker requeues its job at the next trial boundary.
        worker.stop_event = self._stop
        return worker

    # ------------------------------------------------------------------
    # The worker protocol (the HTTP routes and the in-process transport
    # both reach these through repro.service.transport.worker_verb)
    # ------------------------------------------------------------------
    def handshake(self, worker_id: str) -> dict:
        """The config every worker adopts at registration: the policy
        attributes named by ``worker.POLICY`` (lease length, watchdog,
        retry policy, pool width) plus the registry's ttl."""
        cfg = {key: getattr(self, key) for key in POLICY}
        cfg.update(worker_id=worker_id, worker_ttl_s=self.worker_ttl_s)
        return cfg

    def register_worker(self, worker_id: str) -> dict:
        """An out-of-process worker announced itself; returns the
        handshake. Registration is soft state: it expires ``worker_ttl_s``
        after the worker's last contact and costs nothing to repeat."""
        with self._cond:
            self._remote_workers[worker_id] = time.monotonic()
        return self.handshake(worker_id)

    def touch_worker(self, worker_id: str) -> None:
        """Refresh a worker's last-seen stamp (every verb calls this)."""
        with self._cond:
            if worker_id in self._remote_workers:
                self._remote_workers[worker_id] = time.monotonic()

    def remote_workers(self) -> List[dict]:
        """Registry snapshot: worker ids, seconds since contact, liveness."""
        now = time.monotonic()
        with self._cond:
            return [
                {
                    "worker_id": wid,
                    "age_s": now - seen,
                    "active": (now - seen) < self.worker_ttl_s,
                }
                for wid, seen in sorted(self._remote_workers.items())
            ]

    def remote_workers_active(self) -> bool:
        """True while at least one registered worker is fresh — the switch
        that stands the in-process workers down."""
        return any(w["active"] for w in self.remote_workers())

    def lease_for_remote(
        self, worker_id: str, timeout: float = 0.0
    ) -> Optional[dict]:
        """Lease one job to a worker.

        The coordinator sweeps the job's fingerprinted store and the
        run-table *before* shipping it (:meth:`_begin_run`): cached
        results are recorded (with this grant's token) and quarantined
        trials counted server-side, so the worker stays stateless and only
        ever receives trials that actually need executing. Returns None
        when nothing is queued, else
        ``{"job": SweepJob, "token": int, "pending": [TrialSpec, ...]}``.
        """
        self.touch_worker(worker_id)
        self.queue.reap_expired()
        job = self.queue.lease(worker_id, timeout=timeout, lease_s=self.lease_s)
        if job is None:
            return None
        token = self.queue.lease_token(job.job_id, worker_id)
        if job.cancel_requested:
            self.queue.ack(job.job_id, worker_id)
            self._finalize(job, CANCELLED)
            return None
        store = self._open_store(job)
        pending = self._begin_run(job, store, worker_id, token)
        with self._cond:
            self._remote[job.job_id] = {
                "worker_id": worker_id, "token": token, "store": store,
                # Serializes this lease's uploads: the has/put/counter
                # sequence must be atomic against a retransmission racing
                # its still-in-flight original on another handler thread.
                "lock": threading.Lock(),
                # Set when a failed record leaves the store untrustworthy.
                "revoked": False,
            }
        return {"job": job, "token": token, "pending": pending}

    def boundary(self, job_id: str) -> str:
        """The decision a worker acts on at its next trial boundary:
        cancel a job whose cancellation was requested, yield one that a
        strictly-higher-priority job waits behind, else continue."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            return CONTINUE
        if job.cancel_requested:
            return CANCEL
        top = self.queue.max_queued_priority()
        return YIELD if top is not None and top > job.priority else CONTINUE

    def remote_heartbeat(self, job_id: str, worker_id: str, token: int) -> None:
        """Verify ``worker_id`` holds the lease under ``token`` and push
        its expiry out — every heartbeat and fenced upload does, so a job
        whose trials outlive ``lease_s`` is never reaped mid-run.
        :class:`LeaseLost` tells the worker its lease was reaped (and
        possibly re-granted): it must abandon. Fault site ``lease.reap``
        fires first; its ``reap`` action yanks the lease, exactly as a
        stalled worker would experience."""
        self.touch_worker(worker_id)
        if self._fault_hook is not None:
            rule = self._fault_hook("lease.reap", job_id)
            if rule is not None and rule.action == "reap":
                self.queue.force_expire(job_id)
        try:
            self.queue.extend(job_id, worker_id, self.lease_s, token=token)
        except LeaseLost:
            self._drop_remote_ctx(job_id, token)
            raise

    def _lease_ctx(self, job_id: str, worker_id: str, token: int):
        """(lease context, live job) of a fenced upload, after extending
        the lease; :class:`LeaseLost` if the caller no longer holds it."""
        self.remote_heartbeat(job_id, worker_id, token)
        with self._cond:
            ctx = self._remote.get(job_id)
            job = self._jobs.get(job_id)
        if ctx is None or job is None or ctx["token"] != token:
            raise LeaseLost(
                f"job {job_id} has no live lease for token {token}"
            )
        return ctx, job

    def record_remote_result(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        result: TrialResult,
        wall: Optional[float] = None,
    ) -> bool:
        """Accept one uploaded TrialResult from a worker.

        Ordered checks make this safe against every replay the fault plan
        can produce: (1) the queue verifies worker *and* fencing token, so
        a zombie's upload raises :class:`LeaseLost` before any write; (2)
        the job's store deduplicates by (trial_id, fingerprint), so a
        duplicated upload returns False without touching counters; (3) the
        run-table insert carries the token, so even a write racing the
        reap window is fenced by :class:`~repro.errors.StaleTokenError`.
        Returns True when the result was new.

        If the save or the row write fails, the in-memory store already
        holds a result that may be on no disk and in no row, so its dedup
        can no longer be trusted: the lease is revoked. The worker's retry
        is fenced (409) and the next grant's sweep from disk back-fills
        the row or re-runs the trial."""
        ctx, job = self._lease_ctx(job_id, worker_id, token)
        store: ResultStore = ctx["store"]
        with ctx["lock"]:
            if ctx["revoked"]:
                raise LeaseLost(f"job {job_id}'s lease {token} was revoked")
            if store.has(result.trial_id, result.fingerprint):
                return False  # duplicated upload: one row, one counter bump
            store.put(result)
            try:
                self._save_store(store)
                self.runtable.record_trial(
                    job.name, result, seed=job.testbed_seed, wall_time=wall,
                    status="ok", job_id=job.job_id,
                    worker_id=worker_id, attempt=job.attempt, token=token,
                )
            except BaseException:
                ctx["revoked"] = True
                self.queue.force_expire(job_id, token)
                self._drop_remote_ctx(job_id, token)
                raise
            job.completed += 1
        self._notify()
        if self._fault_hook is not None:
            # After the row and counters are durable: a kill/crash here is
            # the worst-timed coordinator death that still loses nothing.
            self._fault_hook("coordinator.record", result.trial_id)
        return True

    def record_remote_quarantine(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        trial_id: str,
        fingerprint: str,
        error: str,
        error_class_name: str,
    ) -> None:
        """A worker gave up on one trial (permanent failure or exhausted
        retries). Fenced and verified exactly like a result."""
        ctx, job = self._lease_ctx(job_id, worker_id, token)
        with ctx["lock"]:
            # Replay dedup, mirroring the store.has check on the result
            # path: a duplicated quarantine upload must land exactly one
            # row *and* exactly one counter bump. The run-table row is the
            # durable witness that this (trial, fingerprint) was already
            # counted — lease_for_remote excludes quarantined trials from
            # ``pending``, so a fresh grant never legitimately re-sends one.
            status = self.runtable.trial_status(
                job.name, trial_id, fingerprint
            )
            if status == "quarantined":
                return
            self.runtable.record_quarantine(
                job.name, trial_id, fingerprint, error, error_class_name,
                seed=job.testbed_seed, job_id=job.job_id,
                worker_id=worker_id, attempt=job.attempt, token=token,
            )
            job.quarantined += 1
            job.error = f"{error_class_name}: {error}"
        self._notify()

    def remote_ack(self, job_id: str, worker_id: str, token: int) -> dict:
        """The worker walked every pending trial (or was told to cancel):
        finalize the job. The terminal state is computed *server-side*
        from the counters the verified uploads built — a worker cannot
        claim completion it did not upload. Returns the job's final
        progress dict."""
        self.touch_worker(worker_id)
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise LeaseLost(f"job {job_id} is not live")
        if job.cancel_requested:
            state = CANCELLED
        elif job.completed >= job.total and job.quarantined == 0:
            state = DONE
        else:
            state = DONE_PARTIAL
        try:
            # Ack verifies worker + token; LeaseLost means the new holder
            # owns the job and this worker's view of it is already history.
            self.queue.ack(job_id, worker_id, token)
        finally:
            self._drop_remote_ctx(job_id, token)
        self._finalize(job, state)
        return job.progress()

    def remote_requeue(self, job_id: str, worker_id: str, token: int) -> None:
        """Give the job back (the worker is draining, or was told to
        yield): it returns to the queue at its original position, its
        progress persisted."""
        self.touch_worker(worker_id)
        with self._cond:
            job = self._jobs.get(job_id)
        try:
            self.queue.requeue(job_id, worker_id, token=token)
        finally:
            self._drop_remote_ctx(job_id, token)
        if job is not None:
            job.state = QUEUED
            self.runtable.upsert_job(job)
            self._notify()

    def _drop_remote_ctx(self, job_id: str, token: int) -> None:
        """Forget a lease context, but only if it still belongs to
        ``token`` — a re-granted lease's fresh context must survive the
        zombie's cleanup."""
        with self._cond:
            ctx = self._remote.get(job_id)
            if ctx is not None and ctx["token"] == token:
                del self._remote[job_id]

    # ------------------------------------------------------------------
    def _open_store(self, job: SweepJob) -> ResultStore:
        return ResultStore(
            self._store_path(job),
            testbed_seed=job.testbed_seed,
            experiment=job.name,
            fault_hook=self._fault_hook,
        )

    def _begin_run(
        self,
        job: SweepJob,
        store: ResultStore,
        worker_id: str,
        token: int,
    ) -> List[TrialSpec]:
        """Move a freshly leased job to RUNNING and return the trials that
        still need executing.

        Fingerprint-cached and already-quarantined trials (the resume
        paths) never re-execute — a trial that hung a worker in a previous
        incarnation must not hang this one. The counters restart from what
        this sweep finds, and the cached results' rows, the counters and
        the RUNNING state are committed in one transaction, so a job with
        every result cached costs one job write, not one per trial."""
        quarantined = self.runtable.quarantined_trials(job.name)
        cached: List[TrialResult] = []
        pending: List[TrialSpec] = []
        job.quarantined = 0
        for trial in job.trials:
            hit = store.get(trial)
            if hit is not None:
                cached.append(hit)
            elif (trial.trial_id, trial.fingerprint()) in quarantined:
                job.quarantined += 1
            else:
                pending.append(trial)
        job.completed = len(cached)
        job.state = RUNNING
        job.started_at = time.time()
        self.runtable.begin_run(job, cached, worker_id=worker_id,
                                attempt=job.attempt, token=token)
        self._notify()
        return pending

    def _save_store(self, store: ResultStore) -> None:
        """Persist the store, absorbing up to two transient write failures
        (full disk that clears, injected OSError). A failed save leaves the
        previous contents intact and its results pending, so the retry
        appends each of them exactly once."""
        for attempt in range(3):
            try:
                store.save()
                return
            except OSError:
                if attempt == 2:
                    raise
                self._sleep(
                    min(self.backoff_cap_s,
                        self.backoff_base_s * (2 ** attempt))
                )

    def _finalize(self, job: SweepJob, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        self.runtable.upsert_job(job)
        with self._cond:
            # Terminal jobs live on in the run-table; drop the live ref so
            # a long-lived serve process doesn't accumulate trial lists.
            # (The durable idem_key row keeps dedup working afterwards.)
            self._jobs.pop(job.job_id, None)
            if job.idempotency_key:
                self._idem.pop(job.idempotency_key, None)
        self._notify()

    def _store_path(self, job: SweepJob) -> str:
        return os.path.join(self.data_dir, "stores", f"{job.job_id}.json")

    def _notify(self) -> None:
        with self._cond:
            self._cond.notify_all()
