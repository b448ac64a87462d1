"""HTTP API end-to-end: a live server + worker thread, driven only through
:class:`ServiceClient` (the same surface the CLI and CI smoke check use).

``run_trial`` is replaced with a fast scripted fake for the whole module —
these tests exercise routing, long-polling, and the submit/cancel/query
surfaces, not the simulator (the coordinator tests cover bit-identity
against real trials).
"""

import threading
import time
import urllib.error

import pytest

from repro.analysis import stats
from repro.experiments.runners import ExperimentScale, build_single_link_calibration
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    TrialResult,
    TrialSpec,
    experiment_to_wire,
)
from repro.net.testbed import Testbed
from repro.service.coordinator import Coordinator
from repro.service.faults import FaultPlan, FaultRule
from repro.service.http_api import ApiError, ServiceClient, make_server, serve_in_thread


def _trials(n, prefix="t"):
    return [
        TrialSpec(f"{prefix}/{i}", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                  0, 4.0, 1.0)
        for i in range(n)
    ]


class _ScriptedRunTrial:
    """Instant fake results: trial ``p/i`` yields ``i + 1`` Mbps. Trials
    whose prefix is ``slow`` pause so cancellation can land mid-job."""

    def __call__(self, testbed, trial):
        prefix, _, index = trial.trial_id.rpartition("/")
        if prefix.startswith("slow"):
            time.sleep(0.05)
        try:
            mbps = float(index) + 1.0
        except ValueError:  # non-numeric suffix (e.g. calibration/dcf)
            mbps = 1.0
        return TrialResult(
            trial_id=trial.trial_id,
            flow_mbps={trial.flows[0]: mbps},
            fingerprint=trial.fingerprint(),
        )


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def service(tmp_path_factory, testbed):
    mp = pytest.MonkeyPatch()
    mp.setattr("repro.service.worker.run_trial", _ScriptedRunTrial())
    co = Coordinator(
        str(tmp_path_factory.mktemp("svc")),
        sleep=lambda s: None,
        testbed_factory=lambda seed: testbed,
    )
    co.start(workers=1)
    server = make_server(co)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    yield co, client
    server.shutdown()
    co.stop(timeout=5.0)
    co.runtable.close()
    mp.undo()


def _tail_to_terminal(client, job_id):
    final = None
    for progress in client.tail(job_id, wait=5.0):
        final = progress
    return final


class TestHealthAndErrors:
    def test_healthz(self, service):
        co, client = service
        reply = client.health()
        assert reply["ok"] is True
        assert "queued" in reply

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client.job("nope")
        assert err.value.status == 404
        with pytest.raises(ApiError) as err:
            client.cancel("nope")
        assert err.value.status == 404

    def test_unknown_builder_is_400_listing_the_registry(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client.submit_builder("fig99")
        assert err.value.status == 400
        assert "fig12" in str(err.value)

    def test_empty_submit_body_is_400(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client._request("POST", "/jobs", {})
        assert err.value.status == 400

    def test_malformed_numeric_query_params_are_400(self, service):
        _, client = service
        for path in (
            "/jobs?limit=abc",
            "/jobs/whatever?wait=abc",
            "/jobs/whatever?cursor=abc",
            "/runs?limit=abc",
            "/runs/summary?experiment=e&metric=m&q=a,b",
        ):
            with pytest.raises(ApiError) as err:
                client._request("GET", path)
            assert err.value.status == 400, path

    def test_unrouted_path_is_404_and_runs_is_readonly(self, service):
        _, client = service
        with pytest.raises(ApiError) as err:
            client._request("GET", "/frobnicate")
        assert err.value.status == 404
        with pytest.raises(ApiError) as err:
            client._request("POST", "/runs", {})
        assert err.value.status == 405


class TestSubmitAndTail:
    def test_wire_submit_runs_to_completion(self, service):
        co, client = service
        spec = ExperimentSpec("wiresweep", _trials(4, "w"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         testbed_seed=1)
        assert reply["name"] == "wiresweep" and reply["trials"] == 4
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done"
        assert final["completed"] == 4 and final["failed"] == 0

        runs = client.runs(experiment="wiresweep", with_payload=True)
        assert runs["counts"]["wiresweep"] == 4
        mbps = sorted(row["payload"]["flow_mbps"][0][2]
                      for row in runs["runs"])
        assert mbps == [1.0, 2.0, 3.0, 4.0]

    def test_builder_submit_resolves_serverside(self, service, testbed):
        co, client = service
        reply = client.submit_builder("calibration", scale="smoke", seed=1)
        expected = build_single_link_calibration(
            testbed, scale=ExperimentScale.smoke())
        assert reply["trials"] == len(expected.trials)
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done"
        # the server built the very trials the in-process builder builds
        got = {r.trial_id for r in co.runtable.results(expected.name)}
        assert got == {t.trial_id for t in expected.trials}

    def test_job_listing_includes_submitted_jobs(self, service):
        _, client = service
        reply = client.submit_experiment(
            experiment_to_wire(
                ExperimentSpec("listed", _trials(1, "l"), lambda r: r)))
        _tail_to_terminal(client, reply["job_id"])
        assert any(j["job_id"] == reply["job_id"] for j in client.jobs())

    def test_summary_percentiles_match_stats(self, service):
        _, client = service
        spec = ExperimentSpec("summed", _trials(5, "s"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        _tail_to_terminal(client, reply["job_id"])
        summary = client.summary("summed", "total_mbps", qs=(10, 50, 90))
        assert summary["count"] == 5
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        for q in (10, 50, 90):
            assert summary["percentiles"][str(float(q))] == \
                stats.percentile(values, q)


class TestCancel:
    def test_cancel_over_http(self, service):
        _, client = service
        spec = ExperimentSpec("slowsweep", _trials(200, "slow"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        cancel = client.cancel(reply["job_id"])
        assert cancel["cancelled"] is True
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "cancelled"
        assert final["completed"] < 200


class TestLongPoll:
    def test_wait_returns_promptly_on_progress(self, service):
        _, client = service
        spec = ExperimentSpec("polled", _trials(3, "p"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        t0 = time.monotonic()
        progress = client.job(reply["job_id"], wait=30.0, cursor=0)
        elapsed = time.monotonic() - t0
        assert progress["completed"] + progress["failed"] > 0 \
            or progress["state"] in ("done", "failed", "cancelled")
        assert elapsed < 10.0  # long-poll released early, not at the cap
        _tail_to_terminal(client, reply["job_id"])

    def test_concurrent_pollers_all_release(self, service):
        _, client = service
        spec = ExperimentSpec("fanout", _trials(2, "f"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec))
        finals = []

        def poll():
            finals.append(_tail_to_terminal(client, reply["job_id"]))

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(finals) == 4
        assert all(f["state"] == "done" for f in finals)


def _faulty_client(service, plan, retries=2):
    """A second client against the live server, with injected faults and
    a recorded (instant) sleep so the retry schedule is observable."""
    _, client = service
    sleeps = []
    faulty = ServiceClient(client.base_url, timeout=10.0, retries=retries,
                           retry_seed=7, fault_hook=plan.fire,
                           sleep=sleeps.append)
    return faulty, sleeps


class TestIdempotentRetries:
    def test_dropped_submit_is_retried_with_the_same_key(self, service):
        """The first submit dies before the bytes leave; the retry carries
        the same client-minted idempotency key, so exactly one job is
        created."""
        plan = FaultPlan([FaultRule(site="client.request", key="/jobs",
                                    action="drop")])
        client, sleeps = _faulty_client(service, plan)
        spec = ExperimentSpec("dropped", _trials(2, "d"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="drop-key-1")
        assert reply["deduplicated"] is False  # server never saw attempt 1
        assert len(sleeps) == 1
        _tail_to_terminal(client, reply["job_id"])
        # resubmitting under the same key hands the original job back
        again = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="drop-key-1")
        assert again["deduplicated"] is True
        assert again["job_id"] == reply["job_id"]
        assert sum(1 for j in client.jobs(limit=1000)
                   if j["name"] == "dropped") == 1

    def test_truncated_submit_deduplicates_serverside(self, service):
        """The server processes the submit but the response is lost on the
        wire: the retry must find the job the first attempt created, not
        mint a duplicate."""
        plan = FaultPlan([FaultRule(site="client.request", key="/jobs",
                                    action="truncate")])
        client, sleeps = _faulty_client(service, plan)
        spec = ExperimentSpec("truncated", _trials(2, "x"), lambda r: r)
        reply = client.submit_experiment(experiment_to_wire(spec),
                                         idempotency_key="trunc-key-1")
        assert reply["deduplicated"] is True  # attempt 1 made the job
        assert len(sleeps) == 1
        final = _tail_to_terminal(client, reply["job_id"])
        assert final["state"] == "done" and final["completed"] == 2
        assert sum(1 for j in client.jobs(limit=1000)
                   if j["name"] == "truncated") == 1

    def test_api_errors_are_never_retried(self, service):
        plan = FaultPlan([])
        client, sleeps = _faulty_client(service, plan)
        with pytest.raises(ApiError):
            client.submit_builder("fig99")
        with pytest.raises(ApiError):
            client.job("no-such-job")
        assert sleeps == []

    def test_transport_failure_exhausts_retries_then_raises(self, service):
        plan = FaultPlan([FaultRule(site="client.request", key="/healthz",
                                    action="drop", times=0)])
        client, sleeps = _faulty_client(service, plan, retries=2)
        with pytest.raises(urllib.error.URLError):
            client.health()
        assert len(sleeps) == 2  # retries, not attempts

    def test_non_idempotent_posts_are_not_retried(self, service):
        plan = FaultPlan([FaultRule(site="client.request", action="drop",
                                    times=0)])
        client, sleeps = _faulty_client(service, plan)
        with pytest.raises(urllib.error.URLError):
            client.cancel("whatever")
        assert sleeps == []

    def test_backoff_jitter_is_seed_deterministic(self, service):
        def schedule():
            plan = FaultPlan([FaultRule(site="client.request",
                                        action="drop", times=0)])
            client, sleeps = _faulty_client(service, plan, retries=3)
            with pytest.raises(urllib.error.URLError):
                client.health()
            return sleeps

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 3
        # exponential base with bounded jitter in [0.5x, 1x]
        for i, s in enumerate(first):
            base = 0.2 * (2 ** i)
            assert base * 0.5 <= s <= base
