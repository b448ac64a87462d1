"""Remote worker fleet: the HTTP lease protocol end to end.

Covers the tentpole guarantees of the partition-tolerant worker design:
leases carry fencing tokens, uploads are idempotent under every transport
fault the plan can inject (drop / delay / truncate / duplicate), a reaped
worker backs away on its first 409, cancellation and preemption reach
the worker through its upload replies, the serve process's in-process
workers stand down while the fleet is fresh and take over when it goes
stale, and the hardened HTTP server sheds oversized and hung clients
instead of pinning threads.
"""

import http.client
import socket
import sqlite3
import threading
import time

import pytest

from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.service.coordinator import Coordinator
from repro.service.faults import FaultPlan, FaultRule, canned_plan
from repro.service.http_api import (
    MAX_BODY_BYTES,
    ApiError,
    ServiceClient,
    make_server,
    serve_in_thread,
)
from repro.service.jobs import new_job
from repro.service.queue import InMemoryJobQueue
from repro.service.worker import ABANDONED, ACKED, REQUEUED, Worker


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  0, 4.0, 1.0)
        for i in range(n)
    ]


class _ScriptedRunTrial:
    """Deterministic fake: trial ``p/i`` yields ``i + 1`` Mbps. Ids listed
    in ``slow_once`` sleep ``slow_s`` on their *first* execution only —
    how a test makes a lease expire mid-job exactly once."""

    def __init__(self, slow_once=(), slow_s=0.0):
        self.slow_once = set(slow_once)
        self.slow_s = slow_s
        self.calls = []

    def __call__(self, testbed, trial, **kwargs):
        self.calls.append(trial.trial_id)
        if trial.trial_id in self.slow_once:
            self.slow_once.discard(trial.trial_id)
            time.sleep(self.slow_s)
        _, _, index = trial.trial_id.rpartition("/")
        return TrialResult(
            trial_id=trial.trial_id,
            flow_mbps={trial.flows[0]: float(index) + 1.0},
            fingerprint=trial.fingerprint(),
        )


class _Service:
    """One coordinator + HTTP server on an ephemeral port, torn down by
    the fixture/test that built it."""

    def __init__(self, data_dir, **co_kwargs):
        co_kwargs.setdefault("sleep", lambda s: None)
        co_kwargs.setdefault("testbed_factory", lambda seed: None)
        self.co = Coordinator(str(data_dir), **co_kwargs)
        self.server = make_server(self.co)
        serve_in_thread(self.server)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url, timeout=10.0)

    def close(self):
        self.server.shutdown()
        self.co.stop(timeout=5.0)
        self.co.runtable.close()


@pytest.fixture
def scripted(monkeypatch):
    fake = _ScriptedRunTrial()
    monkeypatch.setattr("repro.service.worker.run_trial", fake)
    return fake


def _worker(service, worker_id, plan=None, **kw):
    kw.setdefault("testbed_factory", lambda seed: None)
    kw.setdefault("sleep", lambda s: None)
    return Worker(
        ServiceClient(service.url, timeout=10.0),
        worker_id=worker_id,
        fault_plan=plan,
        **kw,
    )


def _submit(service, n=4, name="sweep", priority=0):
    job = new_job(name, _trials(n, prefix=name), priority=priority)
    service.co.submit(job)
    return job


class TestEndToEnd:
    def test_one_worker_runs_a_job_over_http(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=4)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            assert progress["attempt"] == 1
            rows = service.co.runtable.recent_runs(limit=100,
                                                   experiment="sweep")
            assert len(rows) == 4
            assert {r["worker_id"] for r in rows} == {"wA"}
            assert all(r["token"] == rows[0]["token"] for r in rows)
        finally:
            service.close()

    def test_two_workers_split_the_queue(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            _submit(service, n=3, name="jobA")
            _submit(service, n=3, name="jobB")
            wa, wb = _worker(service, "wA"), _worker(service, "wB")
            wa.register()
            wb.register()
            assert wa.run_one() == ACKED
            assert wb.run_one() == ACKED
            assert wa.run_one() is None and wb.run_one() is None
            rows = service.co.runtable.recent_runs(limit=100)
            assert len(rows) == 6
            assert {r["worker_id"] for r in rows} == {"wA", "wB"}
        finally:
            service.close()

    def test_release_serves_uploaded_trials_from_cache(self, tmp_path,
                                                       scripted):
        """A re-leased job's already-uploaded trials are swept server-side
        (recorded from the store, not shipped) — the worker only receives
        what still needs running."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA")
            w.register()
            leased = w.client.lease_job("wA")
            assert len(leased["pending"]) == 3
            token = leased["token"]
            # Upload one result, then give the job back.
            res = TrialResult(
                trial_id="sweep/0",
                flow_mbps={(0, 1): 1.0},
                fingerprint=_trials(3, "sweep")[0].fingerprint(),
            )
            w.client.upload_result(job.job_id, "wA", token, res.to_json())
            w.client.requeue_job(job.job_id, "wA", token)
            leased2 = w.client.lease_job("wA")
            assert leased2["token"] > token
            assert [t["trial_id"] for t in leased2["pending"]] == [
                "sweep/1", "sweep/2"
            ]
        finally:
            service.close()

    def test_graceful_stop_requeues_at_the_boundary(self, tmp_path,
                                                    scripted):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            w = _worker(service, "wA")
            w.register()
            w.stop()  # drain requested before the first boundary
            assert w.run_one() == REQUEUED
            assert service.co.queue.get(job.job_id) is not None
            assert service.co.queue.queued_count() == 1
        finally:
            service.close()


class TestBoundaryDecisions:
    """Cancellation and preemption reach an HTTP worker through the
    decision in its upload replies, honored at the next trial boundary."""

    def _hooked(self, monkeypatch, hook):
        fake = _ScriptedRunTrial()

        def run_trial(testbed, trial, **kwargs):
            out = fake(testbed, trial, **kwargs)
            hook(trial)
            return out

        monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
        return fake

    def test_cancel_mid_job_stops_after_k_trials(self, tmp_path,
                                                 monkeypatch):
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=5)

            def cancel_after_second(trial):
                if trial.trial_id == "sweep/1":
                    assert service.client.cancel(job.job_id)["cancelled"]

            fake = self._hooked(monkeypatch, cancel_after_second)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "cancelled"
            assert progress["completed"] == 2
            assert fake.calls == ["sweep/0", "sweep/1"]
            assert service.co.runtable.trial_count(experiment="sweep") == 2
        finally:
            service.close()

    def test_higher_priority_submit_makes_the_worker_yield(self, tmp_path,
                                                           monkeypatch):
        service = _Service(tmp_path)
        try:
            low = _submit(service, n=3, name="low")
            submitted = []

            def submit_high(trial):
                if trial.trial_id == "low/0" and not submitted:
                    submitted.append(_submit(service, n=1, name="high",
                                             priority=5))

            fake = self._hooked(monkeypatch, submit_high)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == REQUEUED
            assert service.client.job(low.job_id)["state"] == "queued"
            assert w.run_one() == ACKED  # high
            assert service.client.job(submitted[0].job_id)["state"] == "done"
            assert w.run_one() == ACKED  # low resumes
            progress = service.client.job(low.job_id)
            assert progress["state"] == "done" and progress["completed"] == 3
            # low/0 was served from the fingerprinted store, never re-run
            assert fake.calls == ["low/0", "high/0", "low/1", "low/2"]
        finally:
            service.close()

    def test_lease_reap_fires_in_the_upload_extend(self, tmp_path,
                                                   scripted):
        """``lease.reap`` fires where the server extends a lease, so it
        reaches HTTP workers too: the second upload finds its lease
        yanked, the worker backs away, and its next lease finishes the
        job with one row per trial."""
        plan = FaultPlan([FaultRule(site="lease.reap", action="reap",
                                    nth=2)])
        service = _Service(tmp_path, fault_plan=plan)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ABANDONED
            assert w.stats["uploaded"] == 1
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done" and progress["attempt"] == 2
            ids = [r["trial_id"] for r in
                   service.co.runtable.recent_runs(limit=100)]
            assert sorted(ids) == ["sweep/0", "sweep/1", "sweep/2"]
            assert scripted.calls == ["sweep/0", "sweep/1", "sweep/1",
                                      "sweep/2"]
        finally:
            service.close()


class TestTransportFaults:
    def test_duplicated_upload_lands_one_row(self, tmp_path, scripted):
        """`duplicate` sends every byte twice; the fenced, fingerprint-
        deduplicated upload path must land exactly one row and bump the
        progress counter exactly once."""
        plan = FaultPlan([
            FaultRule(site="worker.upload", action="duplicate", times=0),
        ])
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=4)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 4
        finally:
            service.close()

    def test_duplicated_quarantine_bumps_counter_once(self, tmp_path,
                                                      scripted):
        """A replayed quarantine upload (truncated response → client
        retry) must land one run-table row *and* one counter bump — the
        idempotency invariant covers both halves."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            leased = service.client.lease_job("wA")
            token = leased["token"]
            spec = _trials(2, "sweep")[0]
            for _ in range(3):  # original + two replays
                service.client.quarantine_trial(
                    job.job_id, "wA", token, spec.trial_id,
                    spec.fingerprint(), "boom", "RuntimeError",
                )
            progress = service.client.job(job.job_id)
            assert progress["quarantined"] == 1
            assert service.co.runtable.trial_count(
                status="quarantined") == 1
        finally:
            service.close()

    def test_racing_duplicate_uploads_bump_counter_once(self, tmp_path,
                                                        scripted):
        """A retransmission racing its still-in-flight original on a
        second handler thread: the has/put/counter sequence is held under
        the lease's lock, so exactly one upload is recorded even when the
        first is still mid-put when the second arrives."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=1)
            leased = service.client.lease_job("wA")
            token = leased["token"]
            store = service.co._remote[job.job_id]["store"]
            real_put = store.put
            store.put = lambda res: (time.sleep(0.3), real_put(res))[1]
            spec = _trials(1, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            outcomes = []

            def upload():
                client = ServiceClient(service.url, timeout=10.0)
                outcomes.append(client.upload_result(
                    job.job_id, "wA", token, wire)["recorded"])

            threads = [threading.Thread(target=upload) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes) == [False, True]
            assert service.client.job(job.job_id)["completed"] == 1
            assert service.co.runtable.trial_count() == 1
        finally:
            service.close()

    def test_truncated_upload_response_retries_and_dedups(self, tmp_path,
                                                          scripted):
        """`truncate`: the server recorded the row but the reply is lost.
        The worker's retry must be absorbed as a no-op, not a duplicate."""
        plan = FaultPlan([
            FaultRule(site="worker.upload", action="truncate", nth=1),
        ])
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=3)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() == ACKED
            progress = service.client.job(job.job_id)
            assert progress["completed"] == 3
            rows = service.co.runtable.recent_runs(limit=100)
            assert len(rows) == 3
        finally:
            service.close()

    def test_dropped_lease_poll_is_absorbed(self, tmp_path, scripted):
        plan = FaultPlan([
            FaultRule(site="worker.request", action="drop", key="lease",
                      nth=1),
        ])
        service = _Service(tmp_path)
        try:
            _submit(service, n=2)
            w = _worker(service, "wA", plan=plan)
            w.register()
            assert w.run_one() is None  # the dropped poll
            assert w.run_one() == ACKED  # the next one gets through
        finally:
            service.close()

    def test_canned_worker_chaos_plan_completes_clean(self, tmp_path,
                                                      scripted):
        """The CI plan (delay + drop + duplicate + truncate + dropped
        heartbeats) must end in a done job with zero duplicate rows."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=5)
            w = _worker(service, "wA", plan=canned_plan("worker-chaos"))
            w.register()
            outcomes = {w.run_one(), w.run_one()}
            assert ACKED in outcomes
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 5
        finally:
            service.close()


class TestFencing:
    def test_zombie_upload_is_rejected_with_409(self, tmp_path, scripted):
        """The partition script, driven with an injectable queue clock:
        worker A leases, the partition outlives the lease, B re-leases
        (larger token), and every one of A's late writes gets a 409 —
        nothing of A's lands after the reap."""
        clock = [0.0]
        queue = InMemoryJobQueue(default_lease_s=5.0,
                                 clock=lambda: clock[0])
        service = _Service(tmp_path, queue=queue, lease_s=5.0)
        try:
            job = _submit(service, n=2)
            leased_a = service.client.lease_job("wA")
            token_a = leased_a["token"]
            clock[0] += 5.1  # the partition outlives the lease
            leased_b = service.client.lease_job("wB")
            assert leased_b["job"]["job_id"] == job.job_id
            token_b = leased_b["token"]
            assert token_b > token_a

            spec = _trials(2, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            for verb in (
                lambda: service.client.upload_result(
                    job.job_id, "wA", token_a, wire),
                lambda: service.client.heartbeat(
                    job.job_id, "wA", token_a),
                lambda: service.client.ack_job(
                    job.job_id, "wA", token_a),
            ):
                with pytest.raises(ApiError) as err:
                    verb()
                assert err.value.status == 409
                assert err.value.code == "lease_lost"
            # The new holder is unaffected by the zombie's attempts.
            out = service.client.upload_result(
                job.job_id, "wB", token_b, wire)
            assert out["recorded"] is True
            rows = service.co.runtable.recent_runs(limit=10)
            assert len(rows) == 1 and rows[0]["worker_id"] == "wB"
        finally:
            service.close()

    def test_same_worker_rewin_is_fenced_by_token(self, tmp_path, scripted):
        """A's lease is reaped and A itself re-leases the job: worker-id
        checks pass, but writes carrying the *old* token must not."""
        clock = [0.0]
        queue = InMemoryJobQueue(default_lease_s=5.0,
                                 clock=lambda: clock[0])
        service = _Service(tmp_path, queue=queue, lease_s=5.0)
        try:
            job = _submit(service, n=1)
            token_old = service.client.lease_job("wA")["token"]
            clock[0] += 5.1
            token_new = service.client.lease_job("wA")["token"]
            assert token_new > token_old
            with pytest.raises(ApiError) as err:
                service.client.heartbeat(job.job_id, "wA", token_old)
            assert err.value.code == "lease_lost"
            service.client.heartbeat(job.job_id, "wA", token_new)
        finally:
            service.close()

    def test_runtable_stale_token_maps_to_409(self, tmp_path, scripted):
        """The run-table's own fence (the last line behind the queue
        check) surfaces as 409/stale_token over HTTP."""
        service = _Service(tmp_path)
        try:
            _submit(service, n=1)
            leased = service.client.lease_job("wA")
            job_id = leased["job"]["job_id"]
            token = leased["token"]
            spec = _trials(1, "sweep")[0]
            result = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            )
            # A future grant already recorded this row...
            service.co.runtable.record_trial(
                "sweep", result, status="failed", replace=True,
                token=token + 10,
            )
            with pytest.raises(ApiError) as err:
                service.client.upload_result(
                    job_id, "wA", token, result.to_json())
            assert err.value.status == 409
            assert err.value.code == "stale_token"
        finally:
            service.close()


    def test_restart_reseeds_token_counter_from_runtable(self, tmp_path,
                                                         scripted):
        """Coordinator restart: the queue's token counter is in-memory,
        the fenced rows are not. A resumed job whose rows carry tokens
        from before the crash must get *fresh* grants that outrank them —
        otherwise the cache sweep and every legitimate upload bounce off
        409 stale_token until the counter catches up."""
        service = _Service(tmp_path)
        try:
            job = _submit(service, n=2)
            # Burn a few grants so the persisted max outruns a counter
            # naively restarting at 1.
            for _ in range(3):
                burned = service.client.lease_job("wA")
                service.client.requeue_job(job.job_id, "wA",
                                           burned["token"])
            leased = service.client.lease_job("wA")
            token = leased["token"]
            spec = _trials(2, "sweep")[0]
            wire = TrialResult(
                trial_id=spec.trial_id,
                flow_mbps={(0, 1): 1.0},
                fingerprint=spec.fingerprint(),
            ).to_json()
            service.client.upload_result(job.job_id, "wA", token, wire)
        finally:
            service.close()

        service2 = _Service(tmp_path)
        try:
            assert service2.co.runtable.max_token() == token
            service2.co.resume_open_jobs()
            leased2 = service2.client.lease_job("wB")
            token2 = leased2["token"]
            assert token2 > token
            # The cache sweep re-recorded sweep/0 without a stale bounce
            # and only the un-run trial ships to the new worker.
            assert [t["trial_id"] for t in leased2["pending"]] == ["sweep/1"]
            spec1 = _trials(2, "sweep")[1]
            wire1 = TrialResult(
                trial_id=spec1.trial_id,
                flow_mbps={(0, 1): 2.0},
                fingerprint=spec1.fingerprint(),
            ).to_json()
            out = service2.client.upload_result(
                job.job_id, "wB", token2, wire1)
            assert out["recorded"] is True
            done = service2.client.ack_job(job.job_id, "wB", token2)
            assert done["state"] == "done" and done["completed"] == 2
        finally:
            service2.close()


class TestRecordFailures:
    """A record that fails after the coordinator's store took the result
    revokes the lease: the worker's retry is fenced instead of being
    answered from the store's in-memory dedup, and the next grant's sweep
    from disk back-fills the row or re-runs the trial. Both transports
    end ``done`` with exactly one ok row per trial."""

    def _drain(self, service, transport):
        """Two grants: the first is revoked mid-job, the second finishes."""
        if transport == "http":
            w = _worker(service, "wA")
            w.register()
            assert w.run_one() == ABANDONED
            assert w.run_one() == ACKED
        else:
            service.co.run_once()
            service.co.run_once()

    def _assert_one_ok_row_per_trial(self, service, job):
        progress = service.co.job_progress(job.job_id)
        assert progress["state"] == "done"
        assert progress["completed"] == 3 and progress["attempt"] == 2
        rows = service.co.runtable.recent_runs(limit=100)
        assert sorted((r["trial_id"], r["status"]) for r in rows) == [
            ("sweep/0", "ok"), ("sweep/1", "ok"), ("sweep/2", "ok")]
        stored = service.co.runtable.get_job(job.job_id)
        assert stored.completed == 3

    @pytest.mark.parametrize("transport", ["http", "inprocess"])
    def test_failed_row_write_is_repaired_by_the_next_grant(
        self, tmp_path, scripted, transport
    ):
        service = _Service(tmp_path)
        rt = service.co.runtable
        real = rt.record_trial
        first_token = []

        def disk_error(site, key):
            raise sqlite3.OperationalError("disk I/O error")

        def record_trial(experiment, result, **kw):
            first_token[:] = first_token or [kw.get("token")]
            if result.trial_id == "sweep/1" and kw.get("token") == first_token[0]:
                # Every write of sweep/1 under the first grant fails
                # with a non-busy error, which _exec does not retry.
                rt.fault_hook = disk_error
                try:
                    return real(experiment, result, **kw)
                finally:
                    rt.fault_hook = None
            return real(experiment, result, **kw)

        rt.record_trial = record_trial
        try:
            job = _submit(service, n=3)
            self._drain(service, transport)
            self._assert_one_ok_row_per_trial(service, job)
            # The store saved sweep/1 before its row failed: the second
            # grant's sweep back-filled the row without re-running it.
            assert scripted.calls == ["sweep/0", "sweep/1", "sweep/2"]
        finally:
            service.close()

    @pytest.mark.parametrize("transport", ["http", "inprocess"])
    def test_failed_store_save_reruns_the_trial(
        self, tmp_path, scripted, transport
    ):
        # Save #1 is sweep/0's; saves #2-#4 (sweep/1 and its two in-place
        # retries) all fail, so the upload fails as a whole.
        plan = FaultPlan([FaultRule(site="store.save", action="raise",
                                    exc="OSError", nth=2, times=3)])
        service = _Service(tmp_path, fault_plan=plan)
        try:
            job = _submit(service, n=3)
            self._drain(service, transport)
            self._assert_one_ok_row_per_trial(service, job)
            # sweep/1 never reached the disk: the second grant re-ran it.
            assert scripted.calls == ["sweep/0", "sweep/1", "sweep/1",
                                      "sweep/2"]
        finally:
            service.close()


class TestPartitionedWorker:
    def test_reaped_worker_abandons_then_finishes_on_relase(
        self, tmp_path, monkeypatch
    ):
        """The full partition round trip with real timing: every
        heartbeat is dropped, one trial outlives the lease, the reaper
        (the in-process worker, which still reaps while it stands down)
        re-queues the
        job, the worker's next upload gets a 409 and it abandons — then
        its next lease finishes from cache with zero duplicate rows."""
        fake = _ScriptedRunTrial(slow_once=("sweep/2",), slow_s=1.2)
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        plan = FaultPlan([
            FaultRule(site="worker.heartbeat", action="drop", times=0),
        ])
        service = _Service(tmp_path, lease_s=0.5)
        service.co.start(workers=1)  # stands down to reaping
        try:
            w = _worker(service, "wA", plan=plan)
            w.register()  # before submit, so the in-process worker stands down
            job = _submit(service, n=4)
            first = w.run_one()
            assert first == ABANDONED
            assert w.stats["uploaded"] == 2  # sweep/0, sweep/1 landed
            # The zombie came back: it re-leases (fresh token), is served
            # the two uploaded trials from cache, and finishes the rest.
            second = w.run_one(timeout=2.0)
            assert second == ACKED
            progress = service.client.job(job.job_id)
            assert progress["state"] == "done"
            assert progress["completed"] == 4
            # >= 2: attempt counts every grant.
            assert progress["attempt"] >= 2
            rows = service.co.runtable.recent_runs(limit=100)
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 4
            # sweep/2 executed twice (the partition ate the first run)
            # but landed exactly once.
            assert fake.calls.count("sweep/2") == 2
        finally:
            service.close()


class TestDegradation:
    def test_local_threads_stand_down_while_fleet_is_active(self, tmp_path):
        co = Coordinator(str(tmp_path), worker_ttl_s=0.2,
                         testbed_factory=lambda seed: None)
        try:
            assert not co.remote_workers_active()
            co.register_worker("wA")
            assert co.remote_workers_active()
            assert co.remote_workers()[0]["active"] is True
            time.sleep(0.3)
            assert not co.remote_workers_active()  # fleet went stale
            co.touch_worker("wA")  # a late contact does NOT revive...
            assert co.remote_workers_active()  # ...wait: touch refreshes
        finally:
            co.runtable.close()

    def test_stale_fleet_falls_back_to_local_execution(self, tmp_path,
                                                       scripted):
        """A registered-then-silent worker must not starve the queue: once
        it ages past the ttl the in-process workers resume leasing."""
        service = _Service(tmp_path, worker_ttl_s=0.4, lease_s=30.0)
        service.co.start(workers=1)
        try:
            service.co.register_worker("ghost")  # never leases anything
            job = _submit(service, n=2)
            time.sleep(0.2)
            # Fleet still "active": the in-process worker stands down.
            assert service.client.job(job.job_id)["state"] == "queued"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                progress = service.client.job(job.job_id)
                if progress["state"] == "done":
                    break
                time.sleep(0.1)
            assert progress["state"] == "done"
            rows = service.co.runtable.recent_runs(limit=10)
            # The serve process's in-process worker ran it: its rows are
            # fenced like any worker's.
            assert {r["worker_id"] for r in rows} == {"worker-0"}
            assert {r["token"] for r in rows} == {rows[0]["token"]}
            assert all(r["attempt"] == 1 for r in rows)
        finally:
            service.close()


class TestServerHardening:
    def test_oversized_body_is_413(self, tmp_path, scripted):
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            conn.close()
        finally:
            service.close()

    def test_negative_content_length_is_400(self, tmp_path, scripted):
        """Content-Length: -1 must be rejected up front — rfile.read(-1)
        would block until EOF/socket timeout, pinning a handler thread."""
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            conn.close()
        finally:
            service.close()

    def test_hung_body_read_reclaims_the_thread(self, tmp_path, scripted,
                                                monkeypatch):
        """A client that promises a body and stops sending must not pin a
        handler thread: the socket timeout fires and the connection is
        dropped (recv sees EOF), while the server keeps serving others."""
        monkeypatch.setattr(
            "repro.service.http_api._Handler.timeout", 0.3)
        service = _Service(tmp_path)
        try:
            host, port = service.server.server_address[:2]
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b'{"builder":'  # ...and then silence
            )
            sock.settimeout(5.0)
            data = b""
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except socket.timeout:
                pytest.fail("server kept the hung connection open")
            sock.close()
            # The server is still healthy for well-behaved clients.
            assert service.client.health()["ok"] is True
        finally:
            service.close()
