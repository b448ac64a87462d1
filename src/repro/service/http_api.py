"""HTTP API + client for the sweep service (stdlib only).

Server: a :class:`ThreadingHTTPServer` over a :class:`Coordinator`.

===============================  =========================================
``GET  /healthz``                liveness + queue depth
``POST /jobs``                   submit a sweep (wire spec or named builder)
``GET  /jobs``                   newest-first job listing
``GET  /jobs/<id>``              progress; ``?wait=S&cursor=N`` long-polls
``POST /jobs/<id>/cancel``       cancel (honored at the next trial boundary)
``GET  /runs``                   recent run-table rows + per-experiment counts
``GET  /runs/summary``           percentiles/summary of a metric
``POST /runs/prune``             retention: drop old rows, checkpoint WAL
``GET  /workers``                out-of-process worker registry snapshot
``POST /workers/register``       worker handshake (lease, retry, pool config)
``POST /workers/lease``          lease one job + fencing token to a worker
``POST /workers/heartbeat``      extend a lease; reply carries the decision
``POST /workers/upload``         idempotent, fenced TrialResult upload
``POST /workers/quarantine``     worker gave up on one trial
``POST /workers/ack``            job finished; server computes final state
``POST /workers/requeue``        graceful give-back (worker draining)
===============================  =========================================

The worker verbs (see ``repro.service.worker``) carry ``worker_id`` and
the lease's **fencing token** in every body; a stale lease maps to HTTP
409 with ``code`` ``lease_lost`` or ``stale_token`` — the reply that
tells a zombie worker to back away. The routes decode their bodies with
:func:`repro.service.transport.worker_verb`, the same function the
serve process's in-process workers call directly; an upload, quarantine
or heartbeat reply carries the boundary decision (continue / yield /
cancel) the worker acts on at its next trial boundary.

Submit bodies (JSON)::

    {"builder": "fig12", "scale": "smoke", "seed": 1,
     "params": {...}, "priority": 0}

resolves a name in :data:`repro.experiments.runners.SWEEP_BUILDERS`
against the server's (cached) testbed, while ::

    {"experiment": {"name": ..., "trials": [...]},
     "testbed_seed": 1, "priority": 0}

carries a full wire-format ExperimentSpec (see ``TrialSpec.to_wire``) —
the round trip is fingerprint-identical, so results are bit-identical to
running the same spec in-process and land in the same resume caches.

Client: :class:`ServiceClient` wraps the endpoints with ``urllib`` —
the CLI's ``submit``/``tail``/``runs`` targets and the CI smoke check
drive the service exclusively through it.
"""

from __future__ import annotations

import json
import random
import socketserver
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.experiments.runners import SWEEP_BUILDERS, ExperimentScale
from repro.experiments.spec import experiment_from_wire
from repro.service.coordinator import Coordinator
from repro.service.jobs import TERMINAL_STATES, new_job
from repro.service.transport import MAX_LONG_POLL_S, ApiError, api_error, worker_verb

#: Largest request body accepted (413 beyond this). Generous for wire
#: sweeps — a trial spec is ~200 bytes, so this clears ~40k trials — but
#: finite, so a hostile Content-Length cannot make a handler allocate
#: unbounded memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-connection socket timeout: a client that stops sending mid-request
#: (or never sends one) frees its handler thread after this, instead of
#: pinning it forever.
SOCKET_TIMEOUT_S = 65.0


def _query_num(query: Dict[str, str], key: str, default, parse):
    """Parse a numeric query param, mapping garbage to a 400 (not a 500)."""
    raw = query.get(key)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ApiError(
            400, f"query param {key}={raw!r} is not a valid {parse.__name__}"
        )


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    #: StreamRequestHandler applies this to the connection socket: a hung
    #: or half-dead client raises timeout instead of pinning the thread.
    timeout = SOCKET_TIMEOUT_S

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, fmt, *args) -> None:
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        url = urllib.parse.urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in urllib.parse.parse_qs(url.query).items()}
        try:
            payload = self._route(method, parts, query)
        except TimeoutError:
            # The connection socket timed out mid-read: the client went
            # away or stalled. Drop the connection; there is nobody to
            # answer, and trying to would just raise again.
            self.close_connection = True
        except Exception as exc:  # a handler bug is a 500, not EOF
            # A lost lease is a 409 whose ``code`` lets a worker tell
            # "back away" from a plain error without parsing the text.
            err = api_error(exc)
            reply = {"error": str(err)}
            if err.code is not None:
                reply["code"] = err.code
            self._send(err.status, reply)
        else:
            self._send(200 if method == "GET" else 201, payload)

    def _route(self, method: str, parts: List[str], query: Dict[str, str]) -> dict:
        co = self.server.coordinator
        if method == "GET" and parts == ["healthz"]:
            return {"ok": True, "queued": co.queue.queued_count()}
        if parts[:1] == ["jobs"]:
            return self._route_jobs(method, parts, query, co)
        if parts[:1] == ["runs"]:
            return self._route_runs(method, parts, query, co)
        if parts[:1] == ["workers"]:
            return self._route_workers(method, parts, co)
        raise ApiError(404, f"no route {method} /{'/'.join(parts)}")

    def _route_jobs(self, method, parts, query, co: Coordinator) -> dict:
        if method == "GET" and len(parts) == 1:
            return {"jobs": co.list_jobs(limit=_query_num(query, "limit", 50, int))}
        if method == "POST" and len(parts) == 1:
            return self._submit(co)
        if method == "GET" and len(parts) == 2:
            wait = min(_query_num(query, "wait", 0.0, float), MAX_LONG_POLL_S)
            cursor = _query_num(query, "cursor", None, int)
            progress = co.wait(
                parts[1],
                cursor=cursor if wait > 0 else None,
                timeout=wait if wait > 0 else None,
            )
            if progress is None:
                raise ApiError(404, f"unknown job {parts[1]!r}")
            return progress
        if method == "POST" and len(parts) == 3 and parts[2] == "cancel":
            job_id = parts[1]
            accepted = co.cancel(job_id)
            progress = co.job_progress(job_id)
            if progress is None:
                raise ApiError(404, f"unknown job {job_id!r}")
            return {"cancelled": accepted, "state": progress["state"]}
        raise ApiError(404, f"no route {method} /{'/'.join(parts)}")

    def _route_runs(self, method, parts, query, co: Coordinator) -> dict:
        if method == "POST" and parts[1:] == ["prune"]:
            body = self._read_body()
            max_age_s = body.get("max_age_s")
            max_keep = body.get("max_keep")
            try:
                deleted = co.runtable.prune(
                    max_age_s=None if max_age_s is None else float(max_age_s),
                    max_keep=None if max_keep is None else int(max_keep),
                )
            except (TypeError, ValueError) as exc:
                raise ApiError(400, f"bad prune bounds: {exc}")
            return {"deleted": deleted}
        if method != "GET":
            raise ApiError(405, "run-table endpoints are read-only "
                                "(except POST /runs/prune)")
        table = co.runtable
        experiment = query.get("experiment")
        if len(parts) == 1:
            return {
                "runs": table.recent_runs(
                    limit=_query_num(query, "limit", 20, int),
                    experiment=experiment,
                    status=query.get("status"),
                    with_payload=query.get("payload") == "1",
                ),
                "counts": table.counts_by_experiment(),
            }
        if parts[1] == "summary":
            if not experiment or "metric" not in query:
                raise ApiError(400, "summary needs ?experiment= and ?metric=")
            metric = query["metric"]
            raw_qs = query.get("q", "10,50,90")
            try:
                qs = [float(q) for q in raw_qs.split(",") if q]
            except ValueError:
                raise ApiError(400, f"query param q={raw_qs!r} is not a "
                                    f"comma-separated list of percentiles")
            return {
                "experiment": experiment,
                "metric": metric,
                "count": len(table.metric_values(experiment, metric)),
                "percentiles": {
                    str(q): v
                    for q, v in table.percentiles(experiment, metric, qs).items()
                },
                "summary": table.summary(experiment, metric),
            }
        raise ApiError(404, f"no route GET /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    def _route_workers(self, method, parts, co: Coordinator) -> dict:
        if method == "GET" and len(parts) == 1:
            return {"workers": co.remote_workers()}
        if method != "POST" or len(parts) != 2:
            raise ApiError(404, f"no route {method} /{'/'.join(parts)}")
        return worker_verb(co, parts[1], self._read_body())

    # ------------------------------------------------------------------
    def _read_body(self) -> dict:
        """Read and parse the JSON request body, bounded by
        :data:`MAX_BODY_BYTES` (413 beyond — before reading a byte of an
        oversized payload, so the allocation never happens)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ApiError(400, "bad Content-Length header")
        if length < 0:
            # rfile.read(-1) would block until EOF/socket timeout, pinning
            # this handler thread for a malicious or broken client.
            raise ApiError(400, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused
            # for a next request — close it after the 413 goes out.
            self.close_connection = True
            raise ApiError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"bad JSON body: {exc}")
        if not isinstance(body, dict):
            raise ApiError(400, "JSON body must be an object")
        return body

    # ------------------------------------------------------------------
    def _submit(self, co: Coordinator) -> dict:
        body = self._read_body()
        try:
            priority = int(body.get("priority", 0))
            seed = int(body.get("seed", body.get("testbed_seed", 1)))
        except (TypeError, ValueError) as exc:
            raise ApiError(400, f"bad priority/seed: {exc}")
        if "builder" in body:
            name = body["builder"]
            builder = SWEEP_BUILDERS.get(name)
            if builder is None:
                raise ApiError(
                    400,
                    f"unknown builder {name!r}; registered: "
                    f"{sorted(SWEEP_BUILDERS)}",
                )
            try:
                scale = ExperimentScale.preset(body.get("scale", "smoke"))
            except KeyError as exc:
                raise ApiError(400, str(exc.args[0]))
            params = body.get("params", {})
            try:
                spec = builder(co.testbed(seed), scale=scale, seed=seed, **params)
            except (TypeError, KeyError, ValueError) as exc:
                raise ApiError(400, f"builder {name!r} rejected params: {exc}")
        elif "experiment" in body:
            try:
                spec = experiment_from_wire(body["experiment"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ApiError(400, f"bad wire experiment: {exc}")
        else:
            raise ApiError(400, "body needs 'builder' or 'experiment'")
        idem_key = body.get("idempotency_key")
        if idem_key is not None and (
            not isinstance(idem_key, str) or not idem_key
            or len(idem_key) > 128
        ):
            raise ApiError(400, "idempotency_key must be a short string")
        job = new_job(spec.name, list(spec.trials), priority=priority,
                      testbed_seed=seed, idempotency_key=idem_key)
        granted = co.submit(job)
        if granted != job.job_id:
            # A previous submit with the same key already created the job
            # (this request is a client retry whose first response was
            # lost) — hand the original back instead of a duplicate.
            return {"job_id": granted, "name": job.name,
                    "trials": job.total, "deduplicated": True}
        return {"job_id": job.job_id, "name": job.name,
                "trials": job.total, "deduplicated": False}

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Long-polls pin threads; don't let a burst of them refuse new sockets.
    request_queue_size = 32

    def __init__(self, addr, coordinator: Coordinator, verbose: bool = False):
        self.coordinator = coordinator
        self.verbose = verbose
        super().__init__(addr, _Handler)


def make_server(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (port 0 = ephemeral; see ``server.server_address``) but do not
    serve — call ``serve_forever()`` or :func:`serve_in_thread`."""
    return ServiceHTTPServer((host, port), coordinator, verbose=verbose)


def serve_in_thread(server: socketserver.BaseServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


# ======================================================================
# Client
# ======================================================================
class ServiceClient:
    """Thin urllib client for the endpoints above.

    ``base_url`` like ``http://127.0.0.1:8642``. Raises :class:`ApiError`
    with the server's message on any non-2xx response.

    Transport failures (connection refused/reset, timeouts, truncated
    responses) retry up to ``retries`` times with jittered exponential
    backoff — but only for *idempotent* requests: GETs always are, and
    submits are made so by a client-minted ``idempotency_key`` that the
    coordinator deduplicates on, which is what makes "retry a submit
    whose response was lost" safe. :class:`ApiError` (the server answered
    with an error) never retries. ``retry_seed`` pins the jitter and
    ``sleep`` is injectable, so retry tests are deterministic and instant;
    ``fault_hook`` fires site ``client.request`` per attempt (actions
    ``drop`` — fail before the bytes leave — and ``truncate`` — the
    server processes the request but the response is lost).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.2,
        retry_seed: Optional[int] = None,
        fault_hook: Optional[Callable[..., Any]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.fault_hook = fault_hook
        self._sleep = sleep
        self._rng = random.Random(retry_seed)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit_builder(
        self,
        builder: str,
        scale: str = "smoke",
        seed: int = 1,
        priority: int = 0,
        params: Optional[Dict[str, Any]] = None,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        return self._request("POST", "/jobs", {
            "builder": builder, "scale": scale, "seed": seed,
            "priority": priority, "params": params or {},
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }, idempotent=True)

    def submit_experiment(
        self,
        wire: dict,
        testbed_seed: int = 1,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        return self._request("POST", "/jobs", {
            "experiment": wire, "testbed_seed": testbed_seed,
            "priority": priority,
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }, idempotent=True)

    def jobs(self, limit: int = 50) -> List[dict]:
        return self._request("GET", f"/jobs?limit={limit}")["jobs"]

    def job(
        self,
        job_id: str,
        wait: Optional[float] = None,
        cursor: Optional[int] = None,
    ) -> dict:
        query = {}
        if wait is not None:
            query["wait"] = wait
        if cursor is not None:
            query["cursor"] = cursor
        suffix = f"?{urllib.parse.urlencode(query)}" if query else ""
        return self._request(
            "GET", f"/jobs/{job_id}{suffix}",
            timeout=self.timeout + (wait or 0),
        )

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel", {})

    def tail(self, job_id: str, wait: float = 10.0) -> Iterator[dict]:
        """Long-poll a job to completion, yielding each progress change.
        The final yield is the terminal progress dict."""
        cursor = -1
        while True:
            progress = self.job(job_id, wait=wait, cursor=max(cursor, 0))
            yield progress
            if progress["state"] in TERMINAL_STATES:
                return
            cursor = (progress["completed"] + progress["failed"]
                      + progress.get("quarantined", 0))

    def runs(
        self,
        experiment: Optional[str] = None,
        limit: int = 20,
        status: Optional[str] = None,
        with_payload: bool = False,
    ) -> dict:
        query = {"limit": limit}
        if experiment:
            query["experiment"] = experiment
        if status:
            query["status"] = status
        if with_payload:
            query["payload"] = 1
        return self._request("GET", f"/runs?{urllib.parse.urlencode(query)}")

    # ------------------------------------------------------------------
    # Worker verbs (used by repro.service.worker, mirrored in-process by
    # repro.service.transport). Every verb but lease is server-side
    # idempotent — the registry upserts, extend re-extends, upload dedups
    # by fingerprint under the fencing token, a replayed ack or requeue
    # just gets 409 — so the transport may retry them. A lease retry could
    # grant a second job, so the worker polls again instead.
    # ------------------------------------------------------------------
    def _worker_verb(self, verb: str, **body) -> dict:
        return self._request("POST", f"/workers/{verb}", body,
                             idempotent=True)

    def register_worker(self, worker_id: str) -> dict:
        return self._worker_verb("register", worker_id=worker_id)

    def workers(self) -> List[dict]:
        return self._request("GET", "/workers")["workers"]

    def lease_job(self, worker_id: str, timeout: float = 0.0) -> dict:
        return self._request(
            "POST", "/workers/lease",
            {"worker_id": worker_id, "timeout": timeout},
            timeout=self.timeout + timeout,
        )

    def heartbeat(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._worker_verb(
            "heartbeat", job_id=job_id, worker_id=worker_id, token=token
        )

    def upload_result(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        result_wire: dict,
        wall: Optional[float] = None,
    ) -> dict:
        return self._worker_verb(
            "upload", job_id=job_id, worker_id=worker_id, token=token,
            result=result_wire, wall=wall,
        )

    def quarantine_trial(
        self,
        job_id: str,
        worker_id: str,
        token: int,
        trial_id: str,
        fingerprint: str,
        error: str,
        error_class_name: str,
    ) -> dict:
        return self._worker_verb(
            "quarantine", job_id=job_id, worker_id=worker_id, token=token,
            trial_id=trial_id, fingerprint=fingerprint, error=error,
            error_class=error_class_name,
        )

    def ack_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._worker_verb(
            "ack", job_id=job_id, worker_id=worker_id, token=token
        )

    def requeue_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._worker_verb(
            "requeue", job_id=job_id, worker_id=worker_id, token=token
        )

    def prune_runs(
        self,
        max_age_s: Optional[float] = None,
        max_keep: Optional[int] = None,
    ) -> dict:
        return self._request(
            "POST", "/runs/prune",
            {"max_age_s": max_age_s, "max_keep": max_keep},
            idempotent=True,
        )

    def summary(
        self,
        experiment: str,
        metric: str,
        qs: Sequence[float] = (10, 50, 90),
    ) -> dict:
        query = urllib.parse.urlencode({
            "experiment": experiment, "metric": metric,
            "q": ",".join(str(q) for q in qs),
        })
        return self._request("GET", f"/runs/summary?{query}")

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> dict:
        if idempotent is None:
            idempotent = method == "GET"
        data = None if body is None else json.dumps(body).encode("utf-8")
        attempts = self.retries + 1 if idempotent else 1
        for attempt in range(attempts):
            req = urllib.request.Request(
                self.base_url + path,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                rule = None
                if self.fault_hook is not None:
                    rule = self.fault_hook("client.request", path)
                if rule is not None and rule.action == "drop":
                    raise urllib.error.URLError(
                        "injected: request dropped before send"
                    )
                with urllib.request.urlopen(
                    req, timeout=timeout or self.timeout
                ) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                if rule is not None and rule.action == "truncate":
                    # The server handled the request; the response is lost
                    # on the wire — the retry must deduplicate server-side.
                    raise urllib.error.URLError(
                        "injected: response truncated"
                    )
                return payload
            except urllib.error.HTTPError as exc:
                # The server answered: not a transport failure, no retry.
                code = None
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                    message = payload.get("error", "")
                    code = payload.get("code")
                except Exception:
                    message = exc.reason
                raise ApiError(
                    exc.code, message or f"HTTP {exc.code}", code=code
                )
            except (OSError, json.JSONDecodeError):
                # URLError, ConnectionError, socket timeouts, truncated
                # JSON — the request may or may not have been processed.
                if attempt == attempts - 1:
                    raise
                self._sleep(
                    self.backoff_s * (2 ** attempt)
                    * (0.5 + 0.5 * self._rng.random())
                )
        raise AssertionError("unreachable")  # pragma: no cover
