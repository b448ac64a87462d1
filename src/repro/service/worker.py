"""Worker: leases jobs from a coordinator and executes their trials.

Every trial the sweep service runs is run by a :class:`Worker` — a
``cli work`` daemon over HTTP, or one of ``serve``'s own workers over the
in-process transport (``repro.service.transport``). Both speak one lease
protocol::

    register ──> lease ──> run trial ──> upload ──┐
                   ^         |    ^───────────────┘ (per pending trial)
                   |         └──> quarantine (permanent failure)
                   └── ack (all trials walked, or cancel) / requeue (yield)

    heartbeat ────────────────────────── (background, every lease_s/3)

The worker stays dumb and stateless because safety is server-side: every
verb carries the lease's **fencing token**, and the first 409
(``lease_lost`` / ``stale_token``) makes the worker abandon the job on the
spot; uploads are **idempotent** (deduplicated by trial id and
fingerprint), so failed ones are retried freely; and the terminal state is
computed by the server at ``ack`` from verified uploads.

Policy comes from the coordinator: the register handshake carries the
lease length, the trial watchdog, the transient-retry policy and
``trial_jobs``; every upload and heartbeat reply carries the boundary
decision (continue, yield, cancel) the worker acts on at its next trial
boundary. With ``trial_jobs > 1`` trials run in chunks over a process
pool and the boundaries fall between chunks; results are bit-identical to
``SerialBackend`` either way.

:meth:`Worker._call` fires the transport fault sites ``worker.request`` /
``worker.upload`` / ``worker.heartbeat`` (``drop``, ``delay``,
``truncate``, ``duplicate`` — see ``repro.service.faults``); the same
plan's ``trial.run`` and ``pool.worker`` sites fire in the trials.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    SimulatedCrash,
    WorkerCrashError,
    error_class,
    is_transient,
)
from repro.experiments.executor import ProcessPoolBackend, run_trial
from repro.experiments.spec import TrialResult, TrialSpec
from repro.net.testbed import Testbed
from repro.service.faults import FaultPlan
from repro.service.jobs import SweepJob
from repro.service.transport import CANCEL, CONTINUE, YIELD, ApiError

#: Outcomes of Worker.run_one (also its return values).
IDLE = None            # nothing leased
ACKED = "acked"        # walked every trial (or cancelled), server finalized
ABANDONED = "abandoned"  # lease lost (or server unreachable): backed away
REQUEUED = "requeued"  # gave the job back: draining, or a higher priority

#: Handshake keys the worker adopts from ``register``.
POLICY = ("lease_s", "trial_timeout_s", "max_retries", "retry_budget",
          "backoff_base_s", "backoff_cap_s", "trial_jobs")


def default_worker_id() -> str:
    """host-pid-suffix: unique per daemon, readable in run-table rows."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _Lease:
    """One leased job, shared by the trial loop and its heartbeat thread."""

    def __init__(self, job_id: str, token: int):
        self.job_id = job_id
        self.token = token
        self.lost = threading.Event()
        #: The latest boundary decision the server replied with.
        self.decision = CONTINUE


class Worker:
    """One worker bound to a client (:class:`ServiceClient` or the
    in-process transport).

    ``fault_plan`` is the plan this worker's transport and trials fire;
    it is independent of whatever plan the server runs. ``sleep`` is
    injectable so retry/poll tests are instant.
    """

    def __init__(
        self,
        client,
        worker_id: Optional[str] = None,
        poll_s: float = 1.0,
        upload_retries: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] = None,
    ):
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.upload_retries = upload_retries
        self._fault_plan = fault_plan
        self._fault_hook = None if fault_plan is None else fault_plan.fire
        self._sleep = sleep
        self._testbed_factory = testbed_factory or (
            lambda seed: Testbed(seed=seed)
        )
        self._testbeds: Dict[int, Testbed] = {}
        #: Policy, replaced by the register handshake (see POLICY).
        self.lease_s: float = 60.0
        self.trial_timeout_s: Optional[float] = None
        self.max_retries = 2
        self.retry_budget = 16
        self.backoff_base_s = 0.1
        self.backoff_cap_s = 5.0
        self.trial_jobs = 1
        self.stop_event = threading.Event()
        #: Counters for the daemon's exit report (and tests).
        self.stats = {"jobs": 0, "acked": 0, "abandoned": 0,
                      "trials": 0, "uploaded": 0, "quarantined": 0}

    # ------------------------------------------------------------------
    # Transport wrapper: where the worker.* fault sites live
    # ------------------------------------------------------------------
    def _call(self, site: str, key: Optional[str], fn: Callable[[], Any]) -> Any:
        """Run one transport call through the fault plan.

        ``delay`` already slept inside ``fire``; ``drop`` fails before the
        bytes leave (a partition); ``truncate`` performs the call but loses
        the response; ``duplicate`` performs it twice and returns the
        *second* reply — the replayed request is the one whose answer the
        caller sees, exactly the retransmission case the fenced,
        idempotent server must absorb."""
        rule = None
        if self._fault_hook is not None:
            rule = self._fault_hook(site, key)
        if rule is not None and rule.action == "drop":
            raise OSError(f"injected: {site} dropped before send")
        out = fn()
        if rule is not None and rule.action == "truncate":
            raise OSError(f"injected: {site} response truncated")
        if rule is not None and rule.action == "duplicate":
            out = fn()
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self, retries: int = 5) -> dict:
        """Handshake: announce this worker and adopt the server's policy
        (lease length drives the heartbeat cadence)."""
        last: Optional[Exception] = None
        for attempt in range(retries):
            try:
                cfg = self._call(
                    "worker.request", "register",
                    lambda: self.client.register_worker(self.worker_id),
                )
                for key in POLICY:
                    if key in cfg:
                        setattr(self, key, cfg[key])
                return cfg
            except OSError as exc:
                last = exc
                self._sleep(min(2.0, 0.2 * (2 ** attempt)))
        assert last is not None
        raise last

    def run(
        self,
        max_jobs: Optional[int] = None,
        idle_exit_s: Optional[float] = None,
    ) -> int:
        """The daemon loop: poll-lease-execute until told to stop.

        ``max_jobs`` bounds how many jobs this worker takes (tests, CI);
        ``idle_exit_s`` exits after that long without work (lets a CI
        fleet drain and leave). Returns the number of jobs taken."""
        self.register()
        taken = 0
        idle_since = time.monotonic()
        while not self.stop_event.is_set():
            if max_jobs is not None and taken >= max_jobs:
                break
            outcome = self.run_one(timeout=self.poll_s)
            if outcome is IDLE:
                if (
                    idle_exit_s is not None
                    and time.monotonic() - idle_since >= idle_exit_s
                ):
                    break
                continue
            taken += 1
            idle_since = time.monotonic()
        return taken

    def stop(self) -> None:
        """Ask the daemon loop to exit after the current job (the current
        job is *requeued* at the next trial boundary, not abandoned)."""
        self.stop_event.set()

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    def run_one(self, timeout: float = 0.0) -> Optional[str]:
        """Lease and execute at most one job: None (nothing leased), else
        ``acked`` / ``abandoned`` / ``requeued``."""
        try:
            leased = self._call(
                "worker.request", "lease",
                lambda: self.client.lease_job(self.worker_id, timeout=timeout),
            )
        except (OSError, ApiError):
            self._sleep(self.poll_s)
            return IDLE
        if not leased or leased.get("job") is None:
            return IDLE
        self.stats["jobs"] += 1
        outcome = self._execute(leased)
        self.stats[outcome] = self.stats.get(outcome, 0) + 1
        return outcome

    def _execute(self, leased: dict) -> str:
        job = SweepJob.from_wire(leased["job"])
        lease = _Lease(job.job_id, int(leased["token"]))
        pending = [TrialSpec.from_wire(t) for t in leased["pending"]]
        testbed = self._testbed(job.testbed_seed)

        stop_hb = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, stop_hb),
            name=f"hb-{job.job_id}",
            daemon=True,
        )
        hb.start()
        try:
            #: Transient-retry budget shared by every trial of this lease.
            budget = {"left": self.retry_budget}
            size = 1 if self.trial_jobs <= 1 else max(2, self.trial_jobs)
            for start in range(0, len(pending), size):
                # Trial (chunk) boundary: the only places a worker
                # changes course.
                if lease.lost.is_set():
                    return ABANDONED
                if self.stop_event.is_set() or lease.decision == YIELD:
                    return self._finish(lease, "requeue", REQUEUED)
                if lease.decision == CANCEL:
                    break
                self._run_chunk(
                    testbed, pending[start:start + size], lease, budget
                )
            if lease.lost.is_set():
                return ABANDONED
            return self._finish(lease, "ack", ACKED)
        finally:
            stop_hb.set()
            hb.join(timeout=5.0)

    def _heartbeat_loop(self, lease: _Lease, stop: threading.Event) -> None:
        """Extend the lease every ``lease_s / 3``. A 409 sets ``lost`` —
        the back-away signal the trial loop checks at every boundary. A
        transport failure (dropped beat) is absorbed: the lease outlives
        a few missed beats, and a partition long enough to matter ends in
        the reap + 409 this loop exists to detect."""
        interval = max(0.1, self.lease_s / 3.0)
        while not stop.wait(interval):
            try:
                reply = self._call(
                    "worker.heartbeat", lease.job_id,
                    lambda: self.client.heartbeat(
                        lease.job_id, self.worker_id, lease.token
                    ),
                )
                lease.decision = reply.get("decision", CONTINUE)
            except ApiError as exc:
                if exc.status == 409:
                    lease.lost.set()
                    return
            except OSError:
                continue

    # ------------------------------------------------------------------
    # Trial execution + the fenced verbs
    # ------------------------------------------------------------------
    def _run_chunk(
        self,
        testbed: Testbed,
        chunk: List[TrialSpec],
        lease: _Lease,
        budget: Dict[str, int],
    ) -> None:
        """Run the trials between two boundaries: over a process pool
        when the chunk has several, then serially (with retries) whatever
        the pool left unsettled."""
        settled: set = set()
        if len(chunk) > 1:
            def on_result(res: TrialResult) -> None:
                settled.add(res.trial_id)
                self.stats["trials"] += 1
                self._upload(lease, res, wall=None)

            def on_error(trial: TrialSpec, exc: BaseException) -> None:
                # The pool already applied its own policy: a hung trial
                # (watchdog/backstop) arrives as TrialHungError, a
                # twice-crashing chunk as WorkerCrashError — both
                # quarantine outright (re-running a worker-killing trial
                # in this process could take it down). Anything else
                # transient falls through to the serial retry path.
                if isinstance(exc, WorkerCrashError) or not is_transient(exc):
                    settled.add(trial.trial_id)
                    self.stats["trials"] += 1
                    self._quarantine(lease, trial, exc)

            pool = ProcessPoolBackend(
                self.trial_jobs, trial_timeout_s=self.trial_timeout_s,
                fault_plan=self._fault_plan,
            )
            try:
                pool.run(testbed, chunk, on_result=on_result,
                         on_error=on_error)
            except SimulatedCrash:
                raise
            except Exception:
                pass  # survivors fall through to the serial retry path
        for trial in chunk:
            if lease.lost.is_set():
                return
            if trial.trial_id in settled:
                continue
            result, wall, exc = self._run_trial(testbed, trial, budget)
            self.stats["trials"] += 1
            if result is not None:
                self._upload(lease, result, wall)
            else:
                self._quarantine(lease, trial, exc)

    def _run_trial(
        self,
        testbed: Testbed,
        trial: TrialSpec,
        budget: Dict[str, int],
    ):
        """Run one trial, retrying *transient* failures with capped
        exponential backoff while the per-trial cap (``max_retries``) and
        the job's ``budget`` allow. Permanent failures return at once —
        the sim is deterministic, so they would only reproduce. Returns
        (result | None, wall | None, exception | None)."""
        attempt = 0
        while True:
            try:
                t0 = time.perf_counter()
                result = run_trial(testbed, trial, **self._trial_kwargs())
                return result, time.perf_counter() - t0, None
            except SimulatedCrash:
                raise  # fault injection: behave like a dead process
            except Exception as exc:
                if (
                    not is_transient(exc)
                    or attempt >= self.max_retries
                    or budget["left"] <= 0
                ):
                    return None, None, exc
                budget["left"] -= 1
                attempt += 1
                self._sleep(min(
                    self.backoff_cap_s,
                    self.backoff_base_s * (2 ** (attempt - 1)),
                ))

    def _trial_kwargs(self) -> dict:
        """Watchdog/fault kwargs for ``run_trial`` — only passed when
        configured, so tests substituting two-argument fakes keep working."""
        kwargs: dict = {}
        if self.trial_timeout_s is not None:
            kwargs["timeout_s"] = self.trial_timeout_s
        if self._fault_hook is not None:
            kwargs["fault_hook"] = self._fault_hook
        return kwargs

    def _fenced(
        self,
        lease: _Lease,
        key: str,
        stat: str,
        fn: Callable[[], dict],
    ) -> None:
        """One idempotent upload (result or quarantine), retried on
        transport and server failures; the reply's boundary decision is
        kept on the lease. A 409, or no success within the retry budget,
        sets ``lost``: back away (the lease will be reaped, and a later
        upload would be fenced)."""
        attempt = 0
        while not lease.lost.is_set():
            try:
                reply = self._call("worker.upload", key, fn)
            except (ApiError, OSError) as exc:
                conflict = isinstance(exc, ApiError) and exc.status == 409
                if conflict or attempt == self.upload_retries:
                    lease.lost.set()
                    return
                self._sleep(min(2.0, 0.2 * (2 ** attempt)))
                attempt += 1
            else:
                lease.decision = reply.get("decision", CONTINUE)
                self.stats[stat] += 1
                return

    def _upload(
        self,
        lease: _Lease,
        result: TrialResult,
        wall: Optional[float],
    ) -> None:
        wire = result.to_json()
        self._fenced(
            lease, result.trial_id, "uploaded",
            lambda: self.client.upload_result(
                lease.job_id, self.worker_id, lease.token, wire, wall=wall
            ),
        )

    def _quarantine(
        self,
        lease: _Lease,
        trial: TrialSpec,
        exc: Optional[BaseException],
    ) -> None:
        exc = exc if exc is not None else RuntimeError("unknown error")
        self._fenced(
            lease, trial.trial_id, "quarantined",
            lambda: self.client.quarantine_trial(
                lease.job_id, self.worker_id, lease.token,
                trial.trial_id, trial.fingerprint(),
                str(exc), error_class(exc),
            ),
        )

    def _finish(self, lease: _Lease, verb: str, outcome: str) -> str:
        """``ack`` or ``requeue`` the lease. On a 409 someone else owns the
        job now; with the transport dead the lease will be reaped and the
        job re-leased, where the server-side cache sweep spares every
        uploaded trial. Either way: back away."""
        send = getattr(self.client, f"{verb}_job")
        try:
            self._call(
                "worker.request", verb,
                lambda: send(lease.job_id, self.worker_id, lease.token),
            )
            return outcome
        except (ApiError, OSError):
            return ABANDONED

    # ------------------------------------------------------------------
    def _testbed(self, seed: int) -> Testbed:
        tb = self._testbeds.get(seed)
        if tb is None:
            tb = self._testbed_factory(seed)
            self._testbeds[seed] = tb
        return tb


__all__ = [
    "Worker",
    "default_worker_id",
    "ACKED",
    "ABANDONED",
    "REQUEUED",
]
