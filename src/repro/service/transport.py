"""The server half of the worker protocol, shared by every transport.

A :class:`~repro.service.worker.Worker` drives a client with seven verbs
(``register_worker``, ``lease_job``, ``heartbeat``, ``upload_result``,
``quarantine_trial``, ``ack_job``, ``requeue_job``): the ``cli work``
daemon's :class:`~repro.service.http_api.ServiceClient` over
``POST /workers/<verb>``, or the serve process's own
:class:`InProcessTransport`, a direct call. Both end in
:func:`worker_verb`, the one function that decodes a body, calls the
coordinator and encodes the reply; the in-process transport passes the
same wire dicts (minus the JSON text) and maps exceptions with
:func:`api_error` as the HTTP handler does, so a worker cannot tell the
two apart.

Every ``upload``, ``quarantine`` and ``heartbeat`` reply carries the
boundary decision: :data:`CONTINUE`, :data:`YIELD` (requeue: a strictly
higher priority job is queued) or :data:`CANCEL` (ack; the job finalizes
``cancelled``).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import SimulatedCrash, StaleTokenError
from repro.experiments.spec import TrialResult
from repro.service.queue import LeaseLost

#: Cap on a long-poll (``?wait=``, a lease's ``timeout``) so a stalled
#: client cannot pin a server thread forever.
MAX_LONG_POLL_S = 60.0

CONTINUE = "continue"
YIELD = "yield"
CANCEL = "cancel"


class ApiError(Exception):
    """Maps to an HTTP error status.

    ``code`` is the machine-readable error tag the server attaches to
    lease-protocol conflicts (``lease_lost``, ``stale_token``): the worker
    keys its back-away decision on it instead of parsing message text."""

    def __init__(self, status: int, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.code = code


def api_error(exc: Exception) -> ApiError:
    """The error a worker sees for a server-side exception: lease
    conflicts are 409 with a ``code``, anything unexpected is a 500."""
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, LeaseLost):
        return ApiError(409, str(exc), code="lease_lost")
    if isinstance(exc, StaleTokenError):
        return ApiError(409, str(exc), code="stale_token")
    return ApiError(500, f"{type(exc).__name__}: {exc}")


def worker_verb(co, verb: str, body: dict) -> dict:
    """Decode one worker verb's JSON body, run it on coordinator ``co``
    and return the JSON reply."""
    worker_id = body.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id:
        raise ApiError(400, "body needs a non-empty 'worker_id'")

    if verb == "register":
        return co.register_worker(worker_id)
    if verb == "lease":
        timeout = min(float(body.get("timeout", 0.0) or 0.0), MAX_LONG_POLL_S)
        leased = co.lease_for_remote(worker_id, timeout=timeout)
        if leased is None:
            return {"job": None}
        return {
            "job": leased["job"].to_wire(),
            "token": leased["token"],
            "pending": [t.to_wire() for t in leased["pending"]],
        }

    # Every verb below acts on an existing lease: job_id + token.
    job_id = body.get("job_id")
    token = body.get("token")
    if not isinstance(job_id, str) or not job_id:
        raise ApiError(400, "body needs a non-empty 'job_id'")
    if not isinstance(token, int):
        raise ApiError(400, "body needs an integer fencing 'token'")

    if verb == "heartbeat":
        co.remote_heartbeat(job_id, worker_id, token)
        return {"ok": True, "decision": co.boundary(job_id)}
    if verb == "upload":
        try:
            result = TrialResult.from_json(body["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, f"bad wire TrialResult: {exc}")
        wall = body.get("wall")
        recorded = co.record_remote_result(
            job_id, worker_id, token, result,
            wall=None if wall is None else float(wall),
        )
        return {"recorded": recorded, "decision": co.boundary(job_id)}
    if verb == "quarantine":
        try:
            trial_id = str(body["trial_id"])
            fingerprint = str(body["fingerprint"])
            error = str(body["error"])
            error_class_name = str(body.get("error_class", "RuntimeError"))
        except KeyError as exc:
            raise ApiError(400, f"quarantine body missing {exc}")
        co.record_remote_quarantine(
            job_id, worker_id, token, trial_id, fingerprint,
            error, error_class_name,
        )
        return {"ok": True, "decision": co.boundary(job_id)}
    if verb == "ack":
        return co.remote_ack(job_id, worker_id, token)
    if verb == "requeue":
        co.remote_requeue(job_id, worker_id, token)
        return {"ok": True}
    raise ApiError(404, f"no worker verb {verb!r}")


class InProcessTransport:
    """A worker client that calls :func:`worker_verb` directly.

    Registration only fetches the handshake, so ``GET /workers`` lists
    only out-of-process workers; and while any of those is fresh, an
    in-process worker gets no lease — it reaps expired leases and waits on
    ``stop`` instead. A live fleet owns execution; a dead one degrades to
    single-host execution with no operator action.
    """

    def __init__(self, co, stop: threading.Event):
        self.co = co
        self.stop = stop
        #: Id of the last job this transport leased (``run_once``'s answer).
        self.leased_job_id: Optional[str] = None

    def _verb(self, verb: str, **body) -> dict:
        try:
            return worker_verb(self.co, verb, body)
        except SimulatedCrash:
            raise  # fault injection: die like a killed coordinator
        except Exception as exc:
            raise api_error(exc) from exc

    def register_worker(self, worker_id: str) -> dict:
        return self.co.handshake(worker_id)

    def lease_job(self, worker_id: str, timeout: float = 0.0) -> dict:
        if self.co.remote_workers_active():
            self.co.queue.reap_expired()
            self.stop.wait(timeout)
            return {"job": None}
        # Never block inside the queue: a fleet registering meanwhile
        # must win the next grant, so wait for work here and re-check.
        leased = self._verb("lease", worker_id=worker_id, timeout=0)
        if leased["job"] is None:
            if timeout > 0:
                self.co.queue.wait_queued(timeout)
        else:
            self.leased_job_id = leased["job"]["job_id"]
        return leased

    def heartbeat(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._verb(
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
        return self._verb(
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
        return self._verb(
            "quarantine", job_id=job_id, worker_id=worker_id, token=token,
            trial_id=trial_id, fingerprint=fingerprint, error=error,
            error_class=error_class_name,
        )

    def ack_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._verb(
            "ack", job_id=job_id, worker_id=worker_id, token=token
        )

    def requeue_job(self, job_id: str, worker_id: str, token: int) -> dict:
        return self._verb(
            "requeue", job_id=job_id, worker_id=worker_id, token=token
        )
