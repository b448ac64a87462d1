"""Sweep-as-a-service: a long-running experiment coordinator.

The simulator's executor layer (specs, backends, ResultStore) runs one
blocking sweep per CLI invocation. This package turns it into a service
that absorbs concurrent experiment requests:

* :mod:`repro.service.jobs` — :class:`SweepJob`: an experiment's trials
  plus priority and a queued/running/done/done_partial/failed/cancelled
  state machine with completed/failed/quarantined counters.
* :mod:`repro.service.queue` — a lease/ack/requeue priority queue. The
  in-memory implementation is single-host, but the interface is
  multi-host-shaped: a worker that dies mid-lease has its job requeued
  when the lease expires.
* :mod:`repro.service.coordinator` — leases jobs to workers under fencing
  tokens and records their uploads into the per-job ResultStore and the
  run-table; decides cancellation and preemption at trial boundaries,
  deduplicates submits by idempotency key, and crash-resumes open jobs
  from the fingerprinted store on restart.
* :mod:`repro.service.worker` — the one executor: leases a job, runs its
  trials (retrying *transient* failures, quarantining permanent ones) and
  streams fenced, idempotent uploads back, over HTTP (``cli work``) or
  the in-process :mod:`repro.service.transport` (``serve``'s own workers).
* :mod:`repro.service.runtable` — the sqlite run-table (WAL,
  integrity-checked at open, rebuildable from the flat stores): every
  trial row indexed by (experiment, trial id, fingerprint, seed, wall
  time, status), with percentile/summary queries replacing flat-file
  scans.
* :mod:`repro.service.http_api` — stdlib HTTP server + client: submit a
  sweep (wire-format spec or named builder) with idempotent retries,
  long-poll job progress, cancel, and query the run-table.
* :mod:`repro.service.faults` — deterministic fault injection: a
  serializable :class:`FaultPlan` fired through optional hooks at every
  layer above, for chaos tests and the ``cli chaos`` soak.

See DESIGN.md ("Service", "Failure domains") for the architecture and
EXPERIMENTS.md for ``cli serve`` / ``submit`` / ``tail`` / ``runs`` /
``chaos`` usage.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    DONE_PARTIAL,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    SweepJob,
    new_job,
)
from repro.service.queue import InMemoryJobQueue
from repro.service.runtable import RunTable
from repro.service.coordinator import Coordinator
from repro.service.faults import (
    FaultPlan,
    FaultRule,
    build_soak_plan,
    canned_plan,
)
from repro.service.http_api import ServiceClient, make_server

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "DONE_PARTIAL",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "SweepJob",
    "new_job",
    "InMemoryJobQueue",
    "RunTable",
    "Coordinator",
    "FaultPlan",
    "FaultRule",
    "build_soak_plan",
    "canned_plan",
    "ServiceClient",
    "make_server",
]
