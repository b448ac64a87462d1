"""Per-layer metrics from the tracer's dumps, and the tracer self-check.

Each metric names the end-to-end metric it should move (see README.md).
Simulator layers come from accumulators, service layers from spans; a
metric whose layer did no work on a workload reads 0.
"""

from __future__ import annotations

from collections import namedtuple
from statistics import median
from typing import Dict, Iterable, List, Tuple

from workloads import tail

#: HTTP routes the fleet uses, as the tracer labels them.
ROUTES = (
    "get_healthz", "get_workers", "post_jobs", "get_jobs_id", "get_runs",
    "get_runs_summary", "post_workers_register", "post_workers_lease",
    "post_workers_heartbeat", "post_workers_upload", "post_workers_ack",
)

#: (name, unit) of every per-layer metric in the traced run's result line.
#: Times that are structurally 0 on some workload (the service stages and
#: the moving-world costs) are left out of this list and reported in
#: TRACE_ONLY instead, so every time here is measured on every workload.
PER_LAYER: List[Tuple[str, str]] = [
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_s", "s"),
    ("engine.schedules", "count"),
    ("medium.transmits", "count"),
    ("medium.transmit_self_s", "s"),
    ("medium.fanout_delivered_mean", "count"),
    ("medium.fanout_interference_mean", "count"),
    ("medium.position_writes", "count"),
    ("radio.rx_callbacks", "count"),
    ("radio.self_s", "s"),
    ("reception.scores", "count"),
    ("reception.self_s", "s"),
    ("fading.draws", "count"),
    ("fading.self_s", "s"),
    ("mac.self_s", "s"),
    ("mac.timer_arms", "count"),
    ("mac.timer_cancels", "count"),
    ("mac.timer_cancel_ratio", "ratio"),
    ("mac.conflict_map_self_s", "s"),
    ("mac.frames_ok_ratio", "ratio"),
    ("mobility.steps", "count"),
    ("kernels.calls", "count"),
    ("kernels.self_s", "s"),
    ("executor.trials", "count"),
    ("executor.assembly_s", "s"),
    ("worker.busy_frac_max", "ratio"),
    ("worker.busy_frac_min", "ratio"),
    ("worker.retries", "count"),
    ("worker.http_409", "count"),
    ("queue.ops", "count"),
    *[(f"http.requests.{r}", "count") for r in ROUTES],
    ("http.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]

#: Per-layer times reported (printed and written to the trace report) but
#: kept out of the result line because they read 0 where their layer is
#: idle: the moving world on fig12/fleet and the service on fig12/mobility.
TRACE_ONLY: List[Tuple[str, str]] = [
    ("medium.position_self_s", "s"),
    ("mobility.self_s", "s"),
    ("worker.execute_ms_p50", "ms"),
    ("worker.execute_tail_ms", "ms"),
    ("worker.upload_ms_p50", "ms"),
    ("worker.upload_tail_ms", "ms"),
    ("worker.lease_wait_ms", "ms"),
    ("coordinator.record_ms_p50", "ms"),
    ("coordinator.record_tail_ms", "ms"),
    ("coordinator.lease_ms", "ms"),
    ("queue.self_ms", "ms"),
    ("queue.wait_s", "s"),
    ("runtable.commit_ms_p50", "ms"),
    ("runtable.commit_tail_ms", "ms"),
    ("runtable.summary_ms_p50", "ms"),
    ("runtable.summary_tail_ms", "ms"),
    *[(f"http.handler_ms_p50.{r}", "ms") for r in ROUTES],
    ("fleet.overhead_ms_per_trial", "ms"),
]

#: Counts that must repeat exactly for a seed (simulated work only; the
#: service's request counts depend on timing).
EXACT_COUNTS = (
    "engine.events", "engine.schedules", "medium.transmits",
    "medium.position_writes", "radio.rx_callbacks", "reception.scores",
    "fading.draws", "mac.timer_arms", "mac.timer_cancels", "mobility.steps",
    "kernels.calls", "executor.trials", "mac.frames_ok_ratio",
    "medium.fanout_delivered_mean", "medium.fanout_interference_mean",
)

#: Layers that must record calls on a workload, and counts that must be 0.
MUST_BE_ACTIVE = {
    "fig12": ("engine.schedules", "medium.transmits", "radio.rx_callbacks",
              "reception.scores", "fading.draws", "mac.timer_arms",
              "kernels.calls", "executor.trials"),
    "mobility": ("engine.schedules", "medium.transmits", "radio.rx_callbacks",
                 "reception.scores", "fading.draws", "mac.timer_arms",
                 "kernels.calls", "executor.trials", "mobility.steps",
                 "medium.position_writes"),
    "fleet": ("engine.schedules", "medium.transmits", "radio.rx_callbacks",
              "reception.scores", "fading.draws", "mac.timer_arms",
              "kernels.calls", "executor.trials", "queue.ops",
              "http.requests.post_workers_upload",
              "http.requests.get_runs_summary", "runtable.commit_ms_p50",
              "coordinator.record_ms_p50", "worker.execute_ms_p50"),
}
MUST_BE_ZERO = {
    "fig12": ("mobility.steps", "medium.position_writes", "queue.ops",
              "http.requests.post_workers_upload"),
    "mobility": ("queue.ops", "http.requests.post_workers_upload"),
    "fleet": ("mobility.steps", "medium.position_writes"),
}

_RX = ("on_frame_start", "on_frame_end", "on_interference_start",
       "on_interference_end")
_SCHEDULE = tuple(f"engine.Simulator.{m}" for m in (
    "schedule", "schedule_at", "call_later", "call_at", "schedule_call",
    "schedule_fanout"))


#: One span as the tracer wrote it, plus the process that wrote it.
Span = namedtuple("Span", "role pid name layer t0 t1 self_ns id parent "
                          "trace thread err returned")


class Trace:
    """The dumps of one traced pass (one process, or serve + workers)."""

    def __init__(self, dumps: Iterable[dict]):
        self.accs: Dict[Tuple[str, str], List[int]] = {}
        self.spans: List[Span] = []
        self.sim: Dict[str, float] = {}
        for d in dumps:
            for layer, name, calls, total, self_ns in d["accs"]:
                acc = self.accs.setdefault((layer, name), [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_ns
            proc = (d.get("role"), d.get("pid"))
            self.spans.extend(Span(*proc, *s) for s in d["spans"])
            for key, value in d["sim"].items():
                self.sim[key] = self.sim.get(key, 0) + value

    def spans_named(self, name: str, role: str = None) -> List[Span]:
        return [s for s in self.spans
                if s.name == name and (role is None or s.role == role)]

    def calls(self, *names: str) -> int:
        total = sum(acc[0] for (_, n), acc in self.accs.items()
                    if n in names)
        return total + sum(1 for s in self.spans if s.name in names)

    def self_s(self, layer: str, prefix: str = "") -> float:
        ns = sum(acc[2] for (lay, n), acc in self.accs.items()
                 if lay == layer and n.startswith(prefix))
        ns += sum(s.self_ns for s in self.spans
                  if s.layer == layer and s.name.startswith(prefix))
        return ns / 1e9

    def layer_calls(self, layer: str, pred=lambda name: True) -> int:
        return sum(acc[0] for (lay, n), acc in self.accs.items()
                   if lay == layer and pred(n))

    def total_self_s(self) -> float:
        ns = sum(acc[2] for acc in self.accs.values())
        return (ns + sum(s.self_ns for s in self.spans)) / 1e9


def _ms(spans: List[Span]) -> List[float]:
    return [(s.t1 - s.t0) / 1e6 for s in spans]


def _p50_tail(samples: List[float]) -> Tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    return median(samples), tail(samples)[0]


def sim_metrics(trace: Trace, events: int, run_wall_s: float) -> dict:
    """Simulator-layer metrics; ``events``/``run_wall_s`` are the untraced
    event-core totals of the same trials."""
    m: Dict[str, float] = {}
    m["engine.events"] = events
    m["engine.events_per_s"] = events / run_wall_s if run_wall_s else 0.0
    m["engine.self_s"] = trace.self_s("engine")
    m["engine.schedules"] = trace.calls(*_SCHEDULE)
    m["medium.transmits"] = trace.calls("medium.Medium.transmit")
    m["medium.transmit_self_s"] = trace.self_s(
        "medium", "medium.Medium.transmit")
    runs = trace.sim.get("runs", 0)
    m["medium.fanout_delivered_mean"] = (
        trace.sim["census_delivered"] / runs if runs else 0.0)
    m["medium.fanout_interference_mean"] = (
        trace.sim["census_interference"] / runs if runs else 0.0)
    m["medium.position_writes"] = trace.calls("medium.Medium.set_position")
    m["medium.position_self_s"] = trace.self_s(
        "medium", "medium.Medium.set_position")
    m["radio.rx_callbacks"] = trace.layer_calls(
        "radio", lambda n: n.rsplit(".", 1)[-1].strip("<>") in _RX)
    m["radio.self_s"] = trace.self_s("radio")
    m["reception.scores"] = trace.calls(
        "reception.Reception.success_probability")
    m["reception.self_s"] = trace.self_s("reception")
    m["fading.draws"] = trace.layer_calls(
        "fading", lambda n: n.endswith(">") or n.endswith(".draw_db"))
    m["fading.self_s"] = trace.self_s("fading")
    m["mac.self_s"] = trace.self_s("mac")
    arms = trace.calls("base.TimerRegistry.arm")
    cancels = trace.calls("base.TimerRegistry.cancel")
    m["mac.timer_arms"] = arms
    m["mac.timer_cancels"] = cancels
    m["mac.timer_cancel_ratio"] = cancels / arms if arms else 0.0
    m["mac.conflict_map_self_s"] = trace.self_s("mac", "conflict_map.")
    sent = trace.sim.get("frames_sent", 0)
    m["mac.frames_ok_ratio"] = trace.sim["frames_ok"] / sent if sent else 0.0
    m["mobility.steps"] = trace.calls("mobility.MobilityController._apply_step")
    m["mobility.self_s"] = trace.self_s("mobility")
    m["kernels.calls"] = trace.layer_calls("kernels")
    m["kernels.self_s"] = trace.self_s("kernels")
    trials = trace.spans_named("executor.run_trial")
    runs_ = trace.spans_named("network.Network.run")
    m["executor.trials"] = len(trials)
    m["executor.assembly_s"] = (
        sum(s.t1 - s.t0 for s in trials) - sum(s.t1 - s.t0 for s in runs_)
    ) / 1e9
    return m


def service_metrics(trace: Trace, submit_ns: int) -> dict:
    """Service-layer metrics of a traced fleet pass (0 without spans)."""
    m: Dict[str, float] = {}
    by_id = {(s.pid, s.id): s for s in trace.spans}

    def ancestor(s, name):
        """The nearest enclosing span called ``name`` (or None)."""
        while s is not None:
            s = by_id.get((s.pid, s.parent))
            if s is not None and s.name == name:
                return s
        return None

    m["worker.execute_ms_p50"], m["worker.execute_tail_ms"] = _p50_tail(
        _ms(trace.spans_named("executor.run_trial", "work")))
    m["worker.upload_ms_p50"], m["worker.upload_tail_ms"] = _p50_tail(
        _ms(trace.spans_named("http_api.ServiceClient.upload_result", "work")))
    wait = 0.0
    for s in trace.spans_named("http_api.ServiceClient.lease_job", "work"):
        p = ancestor(s, "worker.Worker.run_one")
        if p is not None and p.returned:
            wait += max(0, s.t1 - max(s.t0, submit_ns)) / 1e6
    m["worker.lease_wait_ms"] = wait
    m["worker.retries"] = sum(
        1 for s in trace.spans
        if s.role == "work" and s.err is not None and (
            (s.name == "urllib.urlopen" and not s.err.startswith("HTTPError"))
            or s.name == "executor.run_trial"))
    m["worker.http_409"] = sum(
        1 for s in trace.spans_named("http_api.ServiceClient._request", "work")
        if s.err == "ApiError:409")
    m["coordinator.record_ms_p50"], m["coordinator.record_tail_ms"] = (
        _p50_tail(_ms(trace.spans_named(
            "coordinator.Coordinator.record_remote_result"))))
    lease_ms = 0.0
    grants = [s for s in trace.spans_named(
        "coordinator.Coordinator.lease_for_remote") if s.returned]
    waits: Dict[tuple, int] = {}
    for s in trace.spans_named("queue.InMemoryJobQueue.lease"):
        key = (s.pid, s.parent)
        waits[key] = waits.get(key, 0) + s.t1 - s.t0
    for g in grants:
        lease_ms += (g.t1 - g.t0 - waits.get((g.pid, g.id), 0)) / 1e6
    m["coordinator.lease_ms"] = lease_ms
    queue = [s for s in trace.spans if s.layer == "queue"]
    m["queue.ops"] = len(queue)
    m["queue.self_ms"] = sum(
        s.self_ns for s in queue
        if s.name != "queue.InMemoryJobQueue.lease") / 1e6
    m["runtable.commit_ms_p50"], m["runtable.commit_tail_ms"] = _p50_tail(
        _ms(trace.spans_named("runtable.RunTable.record_trial")))
    summary = [s for s in trace.spans_named("http_api._Handler._route_runs")
               if ancestor(s, "http get_runs_summary") is not None]
    m["runtable.summary_ms_p50"], m["runtable.summary_tail_ms"] = _p50_tail(
        _ms(summary))
    for route in ROUTES:
        spans = trace.spans_named(f"http {route}")
        m[f"http.requests.{route}"] = len(spans)
        m[f"http.handler_ms_p50.{route}"] = (
            median(_ms(spans)) if spans else 0.0)
    m["http.errors"] = trace.calls("errors")
    return m


def self_check(workload: str, metrics: dict) -> List[str]:
    """Wrappers that missed pre-bound closures or by-name imports show up
    as a layer with zero calls where it must be active."""
    problems = []
    for name in MUST_BE_ACTIVE[workload]:
        if not metrics.get(name):
            problems.append(f"tracer self-check: {name} is 0 on {workload}")
    for name in MUST_BE_ZERO[workload]:
        if metrics.get(name):
            problems.append(f"tracer self-check: {name} is {metrics[name]} "
                            f"on {workload}, expected 0")
    return problems
