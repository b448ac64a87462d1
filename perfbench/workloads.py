"""The benchmark's workloads: trial sets, runners and their measurements.

* ``fig12`` and ``mobility`` run in the benchmark process, one trial after
  another through ``executor.run_trial``.
* ``fleet`` runs one ``serve`` and two ``work`` processes on loopback and
  drives them as the only client (see :class:`Fleet` and :func:`run_fleet`).

Every trial set is a pure function of the seed. Times are measured in
host time (``time.perf_counter`` in-process, ``time.monotonic_ns`` for
anything compared across processes); the end-to-end times are then
scaled to reference seconds by the calibration kernel timed beside them
(``calibrate.py``), and the host figures are kept alongside. Simulated
statistics are exact counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Trial-set size of each workload: pair configs per seed and the
#: simulated run length (seconds). Each set takes about 16 s here. Many
#: distinct trials per run, rather than repeats of a few, keep the work per
#: seed and the tail percentile steady; mobility walks differ a lot between
#: configurations, so it takes more and shorter trials.
SCALES = {
    "fig12": dict(configs=24, duration=3.0, warmup=1.0),
    "mobility": dict(configs=28, duration=1.0, warmup=0.25),
    "fleet": dict(configs=70, duration=0.5, warmup=0.1),
}

#: The paper's Fig. 12 claims, printed beside the simulated ones.
PAPER_FIG12 = {"cmap_gain": 2.0, "cmap_concurrency": 0.82}

#: Open-loop rate of ``GET /runs/summary`` on ``fleet`` (requests/s).
QUERY_HZ = 5.0
#: Fleet trials re-run in-process to check rows bit for bit.
FLEET_SAMPLE = 10
WORKERS = ("w0", "w1")


def build(workload: str, seed: int):
    """(testbed, ExperimentSpec) for a workload; the seed picks the testbed
    and the configurations sampled from it."""
    from repro.experiments.runners import (
        ExperimentScale,
        build_exposed_terminals,
        build_mobility_sweep,
    )
    from repro.net.testbed import Testbed

    testbed = Testbed(seed)
    scale = ExperimentScale(**SCALES[workload])
    if workload == "mobility":
        spec = build_mobility_sweep(testbed, scale, seed=seed)
    else:
        spec = build_exposed_terminals(testbed, scale, seed=seed)
    return testbed, spec


def result_digest(payloads: List[dict]) -> str:
    """sha256 over the results' JSON, sorted by trial id."""
    blob = json.dumps(sorted(payloads, key=lambda p: p["trial_id"]),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def canonical(payload: dict) -> str:
    """A result's JSON text after a JSON round trip (tuples -> lists)."""
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of ``samples`` with
    at least ten samples beyond it (the median when n <= 11)."""
    s = sorted(samples)
    n = len(s)
    if n <= 11:
        return median(s), 50.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def fig12_claims(spec, results) -> Dict[str, float]:
    """Simulated Fig. 12 claims next to the paper's (exposed terminals)."""
    reduced = spec.reduce(results)
    conc = reduced.cmap_concurrency
    gain = reduced.gain_over("cmap", "cs_on")
    mean_conc = sum(conc) / len(conc) if conc else 0.0
    return {
        "cmap_gain": gain,
        "cmap_gain_paper": PAPER_FIG12["cmap_gain"],
        "cmap_gain_error": gain / PAPER_FIG12["cmap_gain"] - 1.0,
        "cmap_concurrency": mean_conc,
        "cmap_concurrency_paper": PAPER_FIG12["cmap_concurrency"],
        "cmap_concurrency_error": mean_conc - PAPER_FIG12["cmap_concurrency"],
    }


# ======================================================================
# In-process workloads
# ======================================================================
@dataclass
class SweepRun:
    #: Reference seconds (host time scaled by the calibration kernel).
    setup_s: List[float] = field(default_factory=list)
    sweep_s: List[float] = field(default_factory=list)
    trial_s: List[float] = field(default_factory=list)
    #: The same intervals in host seconds.
    setup_host_s: List[float] = field(default_factory=list)
    sweep_host_s: List[float] = field(default_factory=list)
    trial_host_s: List[float] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    run_wall_s: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    claims: Optional[Dict[str, float]] = None
    attempted: int = 0


def run_inprocess(workload: str, seed: int, seconds: float,
                  setups: int = 3) -> SweepRun:
    """Set up ``setups`` times, then sweep the seed's trials once, and
    again while another sweep still fits in ``seconds``. The calibration
    kernel runs before and after every set-up and between trials; each
    interval is scaled by the two kernel times beside it, and a sweep is
    the sum of its scaled trials (the kernel runs themselves excluded)."""
    from repro import perf
    from repro.experiments.executor import run_trial

    out = SweepRun()
    for _ in range(setups):
        k0 = calibrate.sample()
        t0 = time.perf_counter()
        testbed, spec = build(workload, seed)
        host = time.perf_counter() - t0
        out.setup_host_s.append(host)
        out.setup_s.append(calibrate.to_reference(host, k0, calibrate.sample()))
    start = time.perf_counter()
    while (not out.sweep_host_s or time.perf_counter() - start
           + median(out.sweep_host_s) <= seconds):
        results = []
        sweep = sweep_host = 0.0
        with perf.recording() as rec:
            k_before = calibrate.sample()
            for trial in spec.trials:
                t0 = time.perf_counter()
                results.append(run_trial(testbed, trial))
                host = time.perf_counter() - t0
                k_after = calibrate.sample()
                ref = calibrate.to_reference(host, k_before, k_after)
                k_before = k_after
                out.trial_host_s.append(host)
                out.trial_s.append(ref)
                sweep_host += host
                sweep += ref
        out.sweep_host_s.append(sweep_host)
        out.sweep_s.append(sweep)
        out.attempted += len(spec.trials)
        out.events.append(rec.events)
        out.run_wall_s.append(rec.run_wall_seconds)
        out.digests.append(result_digest([r.to_json() for r in results]))
        if out.claims is None and workload == "fig12":
            out.claims = fig12_claims(spec, results)
    return out


def traced_sweep(workload: str, seed: int, tracer) -> dict:
    """One sweep of the seed's trials in this (traced) process. What the
    tracer recorded while building the testbed is discarded."""
    from repro.experiments.executor import run_trial

    testbed, spec = build(workload, seed)
    tracer.reset()
    t0 = time.monotonic_ns()
    results = [run_trial(testbed, trial) for trial in spec.trials]
    t1 = time.monotonic_ns()
    return {
        "start_ns": t0,
        "end_ns": t1,
        "sweep_s": (t1 - t0) / 1e9,
        "trials": len(spec.trials),
        "digest": result_digest([r.to_json() for r in results]),
    }


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ======================================================================
# Fleet
# ======================================================================
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Fleet:
    """One ``serve`` and two ``work`` processes on loopback, each under
    the benchmark's launcher, with a throwaway data directory and an
    ephemeral port. :meth:`stop` tears everything down and is safe to call
    more than once, also after a failed start."""

    def __init__(self, workdir: str, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.procs: Dict[str, subprocess.Popen] = {}
        self.logs: List = []
        self.url: Optional[str] = None

    def _spawn(self, name: str, cli: List[str]) -> subprocess.Popen:
        cmd = [sys.executable, os.path.join(HERE, "launch.py"),
               "--out", self.out_path(name)]
        if self.trace:
            cmd.append("--trace")
        log = open(os.path.join(self.workdir, f"{name}.log"), "w")
        self.logs.append(log)
        proc = subprocess.Popen(cmd + ["--"] + cli, cwd=ROOT, env=_env(),
                                stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        self.procs[name] = proc
        return proc

    def out_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.json")

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the fleet; return seconds until ``/healthz`` answers and
        both workers are listed as active."""
        from repro.service.http_api import ServiceClient

        t0 = time.perf_counter()
        deadline = time.monotonic() + timeout
        self._spawn("serve", [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--data-dir", os.path.join(self.workdir, "data"),
        ])
        log_path = os.path.join(self.workdir, "serve.log")
        while self.url is None:
            self._check_alive(deadline)
            with open(log_path) as f:
                for line in f:
                    if "sweep service on http://" in line:
                        self.url = line.split(" on ", 1)[1].split()[0]
                        break
            if self.url is None:
                time.sleep(0.005)
        for wid in WORKERS:
            self._spawn(wid, ["work", "--url", self.url, "--worker-id", wid])
        client = ServiceClient(self.url, timeout=5.0, retries=0)
        while True:
            self._check_alive(deadline)
            try:
                if client.health().get("ok"):
                    active = {w["worker_id"] for w in client.workers()
                              if w["active"]}
                    if active >= set(WORKERS):
                        return time.perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        for name, proc in self.procs.items():
            if proc.poll() is not None:
                raise RuntimeError(f"fleet process {name} exited with "
                                   f"{proc.returncode} during start-up")
        if time.monotonic() > deadline:
            raise RuntimeError("fleet did not become ready in time")

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(p.pid) for p in self.procs.values())

    def stop(self) -> None:
        """SIGTERM the workers, then serve (each drains and writes its
        ``--out`` file); SIGKILL whatever is still alive after 15 s."""
        for group in ([n for n in self.procs if n != "serve"], ["serve"]):
            for name in group:
                proc = self.procs.get(name)
                if proc is not None and proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for name in group:
                proc = self.procs.get(name)
                if proc is None:
                    continue
                try:
                    proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for log in self.logs:
            log.close()
        self.logs = []


def new_workdir(prefix: str) -> str:
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=os.path.join(OUT_DIR, "tmp"))


@dataclass
class FleetRun:
    #: Reference seconds/ms (scaled by the calibration kernel, which a
    #: thread of the benchmark process times every 0.1 s meanwhile).
    setup_s: List[float] = field(default_factory=list)
    sweep_s: float = 0.0
    gaps_ms: List[float] = field(default_factory=list)
    #: The same in host time.
    setup_host_s: List[float] = field(default_factory=list)
    sweep_host_s: float = 0.0
    gaps_host_ms: List[float] = field(default_factory=list)
    submit_ns: int = 0
    overhead_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    query_late_ms: List[float] = field(default_factory=list)
    query_errors: int = 0
    busy_frac: Dict[str, float] = field(default_factory=dict)
    queue_wait_s: float = 0.0
    peak_rss_mb: float = 0.0
    trials: int = 0
    not_ok: int = 0
    digest: str = ""
    claims: Optional[Dict[str, float]] = None
    problems: List[str] = field(default_factory=list)
    outs: Dict[str, dict] = field(default_factory=dict)


def _query_loop(client, experiment: str, t0: float, stop: threading.Event,
                out: FleetRun) -> None:
    """Open loop: request k is due at t0 + k / QUERY_HZ whether or not
    request k-1 has returned; latency counts from the due time."""
    from repro.service.http_api import ApiError

    k = 0
    while not stop.is_set():
        due = t0 + k / QUERY_HZ
        k += 1
        now = time.perf_counter()
        if due > now and stop.wait(due - now):
            break
        sent = time.perf_counter()
        try:
            client.summary(experiment, "total_mbps", (50, 90))
        except (OSError, ApiError):
            out.query_errors += 1
            continue
        out.query_ms.append((time.perf_counter() - due) * 1e3)
        out.query_late_ms.append((sent - due) * 1e3)


def run_fleet(seed: int, setups: int, trace: bool) -> FleetRun:
    """Start the fleet ``setups`` times (keeping the last), submit the
    seed's trials as one job, and measure it until every row is
    readable. Correctness checks run after the timed window."""
    from repro.experiments.executor import run_trial
    from repro.experiments.spec import experiment_to_wire
    from repro.service.http_api import ServiceClient

    testbed, spec = build("fleet", seed)
    wire = experiment_to_wire(spec)
    out = FleetRun(trials=len(spec.trials))
    fleet = None
    workdirs = []
    cal = calibrate.Background().start()
    try:
        for _ in range(setups):
            if fleet is not None:
                fleet.stop()
            workdirs.append(new_workdir("fleet-"))
            fleet = Fleet(workdirs[-1], trace=trace)
            t0 = time.perf_counter()
            host = fleet.start()
            out.setup_host_s.append(host)
            out.setup_s.append(host * cal.scale(t0, time.perf_counter()))
        client = ServiceClient(fleet.url, timeout=30.0, retries=0)
        stop = threading.Event()

        t_submit = time.perf_counter()
        out.submit_ns = time.monotonic_ns()
        # recorded_at is wall-clock time; this maps it onto perf_counter.
        wall_offset = time.time() - time.perf_counter()
        job_id = client.submit_experiment(wire, testbed_seed=seed)["job_id"]
        querier = threading.Thread(
            target=_query_loop,
            args=(ServiceClient(fleet.url, timeout=30.0, retries=0),
                  spec.name, t_submit, stop, out),
            daemon=True)
        querier.start()
        final = None
        try:
            for progress in client.tail(job_id, wait=10.0):
                final = progress
            deadline = time.monotonic() + 30.0
            while final["state"] == "done" and time.monotonic() < deadline:
                # The window closes once every row is readable.
                rows = client.runs(experiment=spec.name,
                                   limit=len(spec.trials) + 10)["runs"]
                if sum(r["status"] == "ok" for r in rows) >= len(spec.trials):
                    break
                time.sleep(0.01)
        finally:
            t_done = time.perf_counter()
            stop.set()
            querier.join(timeout=60.0)
            cal.stop()
        out.sweep_host_s = t_done - t_submit
        out.sweep_s = out.sweep_host_s * cal.scale(t_submit, t_done)
        out.peak_rss_mb = fleet.peak_rss_mb()

        # ---- after the timed window: rows, stages, correctness -------
        if final is None or final["state"] != "done" or \
                final["completed"] != len(spec.trials):
            out.problems.append(f"job ended {final}")
        if final is not None and final.get("started_at"):
            out.queue_wait_s = final["started_at"] - final["submitted_at"]
        rows = client.runs(experiment=spec.name, limit=len(spec.trials) + 10,
                           with_payload=True)["runs"]
        _check_rows(spec, rows, out)
        by_worker: Dict[str, List[dict]] = {w: [] for w in WORKERS}
        for row in sorted(rows, key=lambda r: r["recorded_at"]):
            by_worker.setdefault(row["worker_id"], []).append(row)
        for wid, wrows in by_worker.items():
            busy = sum(r["wall_time"] or 0.0 for r in wrows)
            out.busy_frac[wid] = busy / out.sweep_host_s
            for prev, row in zip(wrows, wrows[1:]):
                gap = row["recorded_at"] - prev["recorded_at"]
                scale = cal.scale(prev["recorded_at"] - wall_offset,
                                  row["recorded_at"] - wall_offset)
                out.gaps_host_ms.append(gap * 1e3)
                out.gaps_ms.append(gap * scale * 1e3)
                out.overhead_ms.append((gap - (row["wall_time"] or 0.0)) * 1e3)
        payloads = {r["trial_id"]: r["payload"] for r in rows}
        out.digest = result_digest(list(payloads.values()))
        ordered = [payloads.get(t.trial_id) for t in spec.trials]
        if None not in ordered:
            from repro.experiments.spec import TrialResult

            out.claims = fig12_claims(
                spec, [TrialResult.from_json(p) for p in ordered])
        rng = random.Random(seed)
        for trial in rng.sample(list(spec.trials),
                                min(FLEET_SAMPLE, len(spec.trials))):
            local = canonical(run_trial(testbed, trial).to_json())
            remote = payloads.get(trial.trial_id)
            if remote is None or canonical(remote) != local:
                out.problems.append(
                    f"row {trial.trial_id} differs from in-process run_trial")
    finally:
        cal.stop()
        if fleet is not None:
            fleet.stop()
            for name in fleet.procs:
                path = fleet.out_path(name)
                if os.path.exists(path):
                    with open(path) as f:
                        out.outs[name] = json.load(f)
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)
    return out


def _check_rows(spec, rows: List[dict], out: FleetRun) -> None:
    """Exactly one ``ok`` row per trial, written by a remote worker."""
    want = {t.trial_id for t in spec.trials}
    seen: Dict[str, int] = {}
    for row in rows:
        if row["status"] != "ok":
            out.not_ok += 1
            continue
        seen[row["trial_id"]] = seen.get(row["trial_id"], 0) + 1
        if row["worker_id"] not in WORKERS:
            out.problems.append(
                f"row {row['trial_id']} written by {row['worker_id']!r}, "
                f"not a remote worker")
    missing = want - set(seen)
    dupes = [t for t, n in seen.items() if n != 1]
    extra = set(seen) - want
    if missing or dupes or extra:
        out.problems.append(f"rows: {len(missing)} missing, {len(dupes)} "
                            f"duplicated, {len(extra)} unexpected")
