"""Machine-checked service invariants around the per-trial commit.

* **Counters agree with rows.** After every run-table record — an
  in-process worker, an HTTP worker under the ``worker-chaos`` transport
  plan, both sharing three jobs of different priorities, and a
  ``coordinator.record`` crash followed by resume — a job's persisted
  ``completed``/``quarantined`` equal the number of ``ok``/``quarantined``
  rows over the job's (trial_id, fingerprint) set. The row and the
  counters commit in one transaction, so no crash can split them.
* **Lease cost does not grow with the job.** Leasing a job whose store
  already holds every result writes the job's full descriptor a constant
  number of times, not once per trial.
"""

import types

import pytest

from repro.errors import SimulatedCrash
from repro.experiments import executor
from repro.experiments.executor import ResultStore, SerialBackend
from repro.experiments.spec import MacSpec, TrialResult, TrialSpec
from repro.service import runtable as runtable_mod
from repro.service.coordinator import Coordinator
from repro.service.faults import FaultPlan, FaultRule, canned_plan
from repro.service.http_api import ServiceClient, make_server, serve_in_thread
from repro.net.testbed import Testbed
from repro.service.jobs import DONE, DONE_PARTIAL, new_job
from repro.service.worker import ACKED, REQUEUED, Worker


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  i, 4.0, 1.0)
        for i in range(n)
    ]


def _result(trial):
    _, _, index = trial.trial_id.rpartition("/")
    return TrialResult(trial.trial_id, {trial.flows[0]: float(index) + 1.0},
                       fingerprint=trial.fingerprint())


class _FakeRunTrial:
    """Deterministic stand-in for ``run_trial``; ids in ``poison`` raise a
    permanent error (and so get quarantined)."""

    def __init__(self, poison=()):
        self.poison = set(poison)
        self.calls = []

    def __call__(self, testbed, trial, **kwargs):
        self.calls.append(trial.trial_id)
        if trial.trial_id in self.poison:
            raise RuntimeError(f"poisoned trial {trial.trial_id}")
        return _result(trial)


def _counters_vs_rows(rt, job_id):
    job = rt.get_job(job_id)
    keys = {(t.trial_id, t.fingerprint()) for t in job.trials}
    rows = [r for r in rt.recent_runs(limit=1_000_000, experiment=job.name)
            if (r["trial_id"], r["fingerprint"]) in keys]
    ok = sum(r["status"] == "ok" for r in rows)
    quarantined = sum(r["status"] == "quarantined" for r in rows)
    return (job.completed, job.quarantined), (ok, quarantined)


class _InvariantWatch:
    """Wraps a run-table's record methods so every record is followed,
    under the table's lock, by the counters-vs-rows check. Violations are
    collected, not raised: remote records run on HTTP handler threads."""

    METHODS = ("record_trial", "record_quarantine", "begin_run")

    def __init__(self, rt):
        self.rt = rt
        self.checks = 0
        self.violations = []
        for name in self.METHODS:
            setattr(rt, name, self._watch(getattr(rt, name)))

    def _watch(self, method):
        def wrapped(*args, **kwargs):
            if method.__name__ == "begin_run":
                job_id = args[0].job_id
            else:
                job_id = kwargs.get("job_id")
            with self.rt._lock:
                out = method(*args, **kwargs)
                if job_id is not None:
                    self.check(job_id, method.__name__)
            return out

        return wrapped

    def check(self, job_id, where="check"):
        counters, rows = _counters_vs_rows(self.rt, job_id)
        self.checks += 1
        if counters != rows:
            self.violations.append((where, counters, rows))


def _coordinator(data_dir, **kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("testbed_factory",
                      lambda seed: types.SimpleNamespace(seed=seed))
    return Coordinator(str(data_dir), **kwargs)


class TestCountersMatchRows:
    def test_local_path(self, tmp_path, monkeypatch):
        fake = _FakeRunTrial(poison={"t/2"})
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        co = _coordinator(tmp_path / "svc")
        watch = _InvariantWatch(co.runtable)
        try:
            job_id = co.submit(new_job("local", _trials(6)))
            done = co.run_once()
            assert done.state == DONE_PARTIAL
            assert (done.completed, done.quarantined) == (5, 1)
            watch.check(job_id)
            assert watch.checks == 1 + 6 + 1  # lease, 6 records, final
            assert watch.violations == []
        finally:
            co.runtable.close()

    def test_remote_path_under_worker_chaos(self, tmp_path, monkeypatch):
        fake = _FakeRunTrial(poison={"t/3"})
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        co = _coordinator(tmp_path / "svc")
        watch = _InvariantWatch(co.runtable)
        server = make_server(co)
        serve_in_thread(server)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            job = new_job("remote", _trials(8))
            co.submit(job)
            worker = Worker(
                ServiceClient(url, timeout=10.0), worker_id="wA",
                fault_plan=canned_plan("worker-chaos"),
                testbed_factory=lambda seed: None, sleep=lambda s: None,
            )
            worker.register()
            outcomes = [worker.run_one() for _ in range(3)]
            assert ACKED in outcomes
            final = co.runtable.get_job(job.job_id)
            assert final.state == DONE_PARTIAL
            assert (final.completed, final.quarantined) == (7, 1)
            watch.check(job.job_id)
            assert watch.checks >= 1 + 8
            assert watch.violations == []
            rows = co.runtable.recent_runs(limit=100, experiment="remote")
            ids = [r["trial_id"] for r in rows]
            assert len(ids) == len(set(ids)) == 8
        finally:
            server.shutdown()
            co.stop(timeout=5.0)
            co.runtable.close()

    def test_record_crash_then_resume(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "svc"
        fake = _FakeRunTrial(poison={"t/1"})
        monkeypatch.setattr("repro.service.worker.run_trial", fake)
        plan = FaultPlan([FaultRule(site="coordinator.record",
                                    action="crash", nth=3)])
        co1 = _coordinator(data_dir, fault_plan=plan)
        watch1 = _InvariantWatch(co1.runtable)
        job_id = co1.submit(new_job("resume", _trials(6)))
        with pytest.raises(SimulatedCrash):
            co1.run_once()
        # crashed after the third ok record (t/0, t/2, t/3), with t/1
        # already quarantined: the persisted counters match the rows
        watch1.check(job_id)
        assert watch1.violations == []
        assert co1.runtable.get_job(job_id).state == "running"
        co1.runtable.close()

        co2 = _coordinator(data_dir)
        watch2 = _InvariantWatch(co2.runtable)
        try:
            assert co2.resume_open_jobs() == [job_id]
            watch2.check(job_id, "after resume")
            fake.calls.clear()
            done = co2.run_once()
            assert done.state == DONE_PARTIAL
            assert (done.completed, done.quarantined) == (5, 1)
            # cached and quarantined trials were not re-executed
            assert fake.calls == ["t/4", "t/5"]
            watch2.check(job_id, "final")
            assert watch2.violations == []
        finally:
            co2.runtable.close()


    def test_mixed_fleet_shares_three_jobs(self, tmp_path, monkeypatch):
        """An in-process worker (``run_once``) and an HTTP worker share
        three jobs of different priorities: the HTTP worker yields ``mid``
        when ``high`` arrives, the in-process worker runs ``high``, the
        HTTP worker resumes ``mid`` from its store, and the in-process
        worker drains ``low``. Every record, whichever transport carried
        it, keeps counters == rows; each key ends with exactly one ok row,
        and the rows equal ``SerialBackend``'s."""
        testbed = Testbed(seed=1)
        specs = {
            name: [TrialSpec(f"{name}/{i}", (0, 1), ((0, 1),),
                             MacSpec.of("dcf"), i, 0.2, 0.05)
                   for i in range(3)]
            for name in ("low", "mid", "high")
        }
        reference = {r.trial_id: r for trials in specs.values()
                     for r in SerialBackend().run(testbed, trials)}
        real = executor.run_trial

        def run_trial(tb, trial, **kwargs):
            if trial.trial_id == "mid/0" and not jobs["high"]:
                jobs["high"] = co.submit(new_job("high", specs["high"],
                                                 priority=2))
            return real(tb, trial, **kwargs)

        monkeypatch.setattr("repro.service.worker.run_trial", run_trial)
        # worker_ttl_s=0: the registry never counts the HTTP worker
        # fresh, so the in-process worker does not stand down and both
        # transports record into the same jobs.
        co = _coordinator(tmp_path / "svc", worker_ttl_s=0.0,
                          testbed_factory=lambda seed: testbed)
        watch = _InvariantWatch(co.runtable)
        server = make_server(co)
        serve_in_thread(server)
        host, port = server.server_address[:2]
        try:
            jobs = {
                "low": co.submit(new_job("low", specs["low"], priority=0)),
                "mid": co.submit(new_job("mid", specs["mid"], priority=1)),
                "high": None,
            }
            remote = Worker(
                ServiceClient(f"http://{host}:{port}", timeout=10.0),
                worker_id="wA", testbed_factory=lambda seed: testbed,
                sleep=lambda s: None,
            )
            remote.register()
            assert remote.run_one() == REQUEUED  # mid yields to high
            assert co.run_once().name == "high"
            assert remote.run_one() == ACKED  # mid, mid/0 from its store
            assert co.run_once().name == "low"
            assert co.run_once() is None

            for name, job_id in jobs.items():
                watch.check(job_id, f"final {name}")
                final = co.runtable.get_job(job_id)
                assert (final.state, final.completed) == (DONE, 3)
                rows = co.runtable.recent_runs(limit=100, experiment=name)
                ids = [r["trial_id"] for r in rows]
                assert len(ids) == len(set(ids)) == 3
                writers = {r["worker_id"] for r in rows}
                assert writers == ({"wA"} if name == "mid"
                                   else {"worker-inline"})
                got = co.runtable.results(name)
                assert {r.trial_id: r for r in got} == {
                    t.trial_id: reference[t.trial_id] for t in specs[name]}
            assert watch.violations == []
        finally:
            server.shutdown()
            co.stop(timeout=5.0)
            co.runtable.close()


class TestLeaseCost:
    def _count_job_writes(self, monkeypatch):
        calls = []
        real = runtable_mod._upsert_job

        def counting(conn, job):
            calls.append(job.state)
            real(conn, job)

        monkeypatch.setattr(runtable_mod, "_upsert_job", counting)
        return calls

    @pytest.mark.parametrize("n", [10, 1000])
    def test_fully_cached_lease_writes_the_job_a_constant_number_of_times(
        self, tmp_path, monkeypatch, n
    ):
        co = _coordinator(tmp_path / "svc")
        try:
            job = new_job("cached", _trials(n))
            store = ResultStore(co._store_path(job), testbed_seed=1,
                                experiment=job.name)
            for trial in job.trials:
                store.put(_result(trial))
            store.save()
            writes = self._count_job_writes(monkeypatch)
            co.submit(job)
            lease = co.lease_for_remote("wA")
            assert lease["pending"] == []
            co.remote_ack(job.job_id, "wA", lease["token"])
            assert writes == ["queued", "running", DONE]
            final = co.runtable.get_job(job.job_id)
            assert final.state == DONE
            assert (final.completed, final.quarantined) == (n, 0)
            assert co.runtable.trial_count(experiment="cached",
                                           status="ok") == n
        finally:
            co.runtable.close()
