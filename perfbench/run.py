"""One benchmark for the simulator and the sweep fleet.

    python3 perfbench/run.py --workload fig12 --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``fig12`` and ``mobility`` run trials in this
process; ``fleet`` drives one ``serve`` and two ``work`` processes on
loopback. ``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` runs the workload untraced once, then again
under the layer tracer, and reports the per-layer metrics.

Every run checks its outputs: result digests repeat across repetitions,
between the untraced and the traced pass, and against earlier runs of the
same seed (``.bench_out/ledger``) and the pinned reference
(``perfbench/reference.json``); fleet rows match in-process ``run_trial``.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A mismatch exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = ("fig12", "mobility", "fleet")
#: The seed results are usually quoted at, and one kept back from tuning
#: to confirm later claims on. Both are pinned in reference.json.
DEFAULT_SEED = 1
HELD_OUT_SEED = 11
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("trial_p50_ms", "ms"),
    ("trial_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


# ----------------------------------------------------------------------
# Untraced measurement
# ----------------------------------------------------------------------
def measure_inprocess(workload, seed, seconds, setups, problems):
    import workloads

    run = workloads.run_inprocess(workload, seed, seconds, setups=setups)
    if len(set(run.digests)) != 1:
        problems.append(f"result digest changed between repetitions: "
                        f"{sorted(set(run.digests))}")
    if len(set(run.events)) != 1:
        problems.append(f"event count changed between repetitions: "
                        f"{sorted(set(run.events))}")
    tail_s, pct, n = workloads.tail(run.trial_s)
    e2e = {
        "setup_s": median(run.setup_s),
        "sweep_s": median(run.sweep_s),
        "trial_p50_ms": median(run.trial_s) * 1e3,
        "trial_tail_ms": tail_s * 1e3,
        "peak_rss_mb": workloads.peak_rss_mb_self(),
    }
    host_tail_s, _, _ = workloads.tail(run.trial_host_s)
    host = {
        "setup_s": median(run.setup_host_s),
        "sweep_s": median(run.sweep_host_s),
        "trial_p50_ms": median(run.trial_host_s) * 1e3,
        "trial_tail_ms": host_tail_s * 1e3,
    }
    notes = {
        "trial_tail_ms": f"p{pct:.1f} of {n} trials",
        "sweep_s": f"median of {len(run.sweep_s)} sweeps of "
                   f"{run.attempted // len(run.sweep_s)} trials",
        "setup_s": f"median of {len(run.setup_s)} set-ups",
    }
    ledger = {"digest": run.digests[0], "events": run.events[0],
              "trials": run.attempted // len(run.sweep_s),
              "claims": run.claims}
    return {
        "e2e": e2e, "host": host, "extra": {"failed_frac": 0.0},
        "notes": notes, "ledger": ledger,
        "attempted": run.attempted, "failed": 0, "claims": run.claims,
        "events": run.events[0], "run_wall_s": median(run.run_wall_s),
    }


def measure_fleet(seed, setups, trace, problems):
    import workloads

    run = workloads.run_fleet(seed, setups=setups, trace=trace)
    problems.extend(run.problems)
    tail_ms, pct, n = workloads.tail(run.gaps_ms)
    q_tail, q_pct, q_n = (workloads.tail(run.query_ms)
                          if run.query_ms else (0.0, 0.0, 0))
    failed = run.not_ok + run.query_errors
    attempted = run.trials + len(run.query_ms) + run.query_errors
    workers = [o for name, o in run.outs.items() if name != "serve"]
    e2e = {
        "setup_s": median(run.setup_s),
        "sweep_s": run.sweep_s,
        "trial_p50_ms": median(run.gaps_ms) if run.gaps_ms else 0.0,
        "trial_tail_ms": tail_ms,
        "peak_rss_mb": run.peak_rss_mb,
    }
    host = {
        "setup_s": median(run.setup_host_s),
        "sweep_s": run.sweep_host_s,
        "trial_p50_ms": median(run.gaps_host_ms) if run.gaps_host_ms else 0.0,
        "trial_tail_ms": workloads.tail(run.gaps_host_ms)[0],
    }
    extra = {
        "query_p50_ms": median(run.query_ms) if run.query_ms else 0.0,
        "query_tail_ms": q_tail,
        "query_gen_late_ms_max": max(run.query_late_ms, default=0.0),
        "failed_frac": failed / attempted if attempted else 0.0,
    }
    notes = {
        "trial_tail_ms": f"p{pct:.1f} of {n} row gaps",
        "query_tail_ms": f"p{q_pct:.1f} of {q_n} queries at "
                         f"{workloads.QUERY_HZ:g}/s open loop",
        "setup_s": f"median of {len(run.setup_s)} fleet start-ups",
        "sweep_s": f"one job of {run.trials} trials",
    }
    ledger = {"digest": run.digest, "trials": run.trials,
              "events": sum(o.get("events", 0) for o in workers),
              "claims": run.claims}
    return {
        "e2e": e2e, "host": host, "extra": extra, "notes": notes,
        "ledger": ledger,
        "attempted": attempted, "failed": failed, "claims": run.claims,
        "events": ledger["events"],
        "run_wall_s": sum(o.get("run_wall_s", 0.0) for o in workers),
        "run": run,
    }


def measure(workload, seed, seconds, setups, problems):
    if workload == "fleet":
        return measure_fleet(seed, setups, False, problems)
    return measure_inprocess(workload, seed, seconds, setups, problems)


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def traced(workload, seed, untraced, problems):
    """Run the workload once more under the tracer and derive the
    per-layer metrics; compare its results with the untraced pass."""
    import layers
    import workloads

    if workload == "fleet":
        run = workloads.run_fleet(seed, setups=1, trace=True)
        problems.extend(run.problems)
        trace = layers.Trace(run.outs.values())
        digest = run.digest
        sweep_s = run.sweep_host_s
        workers = [o for name, o in run.outs.items() if name != "serve"]
        events = sum(o.get("events", 0) for o in workers)
        executes = [s for s in trace.spans
                    if s.name == "worker.Worker._execute"]
        coverage = sum(s.t1 - s.t0 for s in executes) / 1e9 / sweep_s
        submit_ns = run.submit_ns
    else:
        work = workloads.new_workdir("traced-")
        out = os.path.join(work, "trace.json")
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--out", out,
               "--trace", "--sweep", workload, "--seed", str(seed)]
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        with open(out) as f:
            dump = json.load(f)
        os.remove(out)
        os.rmdir(work)
        trace = layers.Trace([dump])
        digest = dump["sweep"]["digest"]
        sweep_s = dump["sweep"]["sweep_s"]
        events = dump["events"]
        coverage = trace.total_self_s() / sweep_s
        submit_ns = 0
    if digest != untraced["ledger"]["digest"]:
        problems.append("traced and untraced result digests differ")
    if events != untraced["events"]:
        problems.append(f"traced pass ran {events} events, untraced "
                        f"{untraced['events']}")
    m = layers.sim_metrics(trace, untraced["events"], untraced["run_wall_s"])
    m.update(layers.service_metrics(trace, submit_ns))
    if workload == "fleet":
        urun = untraced["run"]
        busy = sorted(urun.busy_frac.values())
        m["worker.busy_frac_max"], m["worker.busy_frac_min"] = busy[-1], busy[0]
        m["queue.wait_s"] = urun.queue_wait_s
        m["fleet.overhead_ms_per_trial"] = (
            median(urun.overhead_ms) if urun.overhead_ms else 0.0)
    else:
        m["worker.busy_frac_max"] = m["worker.busy_frac_min"] = 0.0
        m["queue.wait_s"] = 0.0
        m["fleet.overhead_ms_per_trial"] = 0.0
    # Host over host: the traced pass is not calibrated.
    m["trace.overhead_ratio"] = sweep_s / untraced["host"]["sweep_s"]
    m["trace.coverage"] = coverage
    problems.extend(layers.self_check(workload, m))
    ledger = {"digest": digest}
    ledger.update({k: m[k] for k in layers.EXACT_COUNTS})
    return m, ledger, trace


# ----------------------------------------------------------------------
# Exact-count ledger
# ----------------------------------------------------------------------
def check_ledger(workload, seed, mode, entry, problems):
    """Counts and digests must repeat exactly for a seed: against earlier
    runs in this checkout and against the pinned reference."""
    ledger_dir = os.path.join(ROOT, ".bench_out", "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, f"{workload}-seed{seed}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    pinned = reference.get(workload, {}).get(str(seed), {}).get(mode)
    for label, want in (("ledger", known.get(mode)), ("reference", pinned)):
        if want is None:
            continue
        for key in sorted(set(want) | set(entry)):
            if want.get(key) != entry.get(key):
                problems.append(f"{label} mismatch for {workload} seed "
                                f"{seed} ({mode}) {key}: {entry.get(key)} "
                                f"!= {want.get(key)}")
    if mode not in known:
        known[mode] = entry
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
def _print_metric(name, value, unit, note=None):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<44} {text:>14} {unit}"
          + (f"   ({note})" if note else ""))


def _print_claims(claims):
    if not claims:
        return
    print("simulated Fig. 12 claims (host-independent; must not move "
          "under a perf-only change):")
    print(f"  CMAP/CS median gain {claims['cmap_gain']:.4f}x vs paper "
          f"~{claims['cmap_gain_paper']:g}x "
          f"(error {claims['cmap_gain_error']:+.1%})")
    print(f"  CMAP mean concurrency {claims['cmap_concurrency']:.4f} vs "
          f"paper ~{claims['cmap_concurrency_paper']:g} "
          f"(error {claims['cmap_concurrency_error']:+.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget of an in-process run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report per-layer "
                             "metrics instead of end-to-end ones")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found beside perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # A SIGTERM must unwind through the finally blocks that stop the fleet.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import layers

    problems = []
    seconds = 0.0 if args.trace else args.seconds
    setups = 1 if args.trace else SETUPS
    untraced = measure(args.workload, args.seed, seconds, setups, problems)
    check_ledger(args.workload, args.seed, "untraced", untraced["ledger"],
                 problems)
    print(f"workload {args.workload}, seed {args.seed} "
          f"(default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    _print_claims(untraced["claims"])
    if args.trace:
        per_layer, ledger, trace = traced(args.workload, args.seed,
                                          untraced, problems)
        check_ledger(args.workload, args.seed, "traced", ledger, problems)
        print("per-layer metrics (traced run):")
        for name, unit in layers.PER_LAYER + layers.TRACE_ONLY:
            _print_metric(name, per_layer[name], unit)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        report = os.path.join(ROOT, ".bench_out",
                              f"trace-{args.workload}-seed{args.seed}.json")
        with open(report, "w") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "metrics": per_layer,
                "accumulators": [[*key, *acc]
                                 for key, acc in sorted(trace.accs.items())],
                "spans": [s._asdict() for s in trace.spans],
            }, f)
        print(f"per-layer report written to {os.path.relpath(report, ROOT)}")
    else:
        print("end-to-end metrics (untraced run; times in reference "
              "seconds, host time in parentheses; see calibrate.py):")
        notes = untraced["notes"]
        for name, unit in END_TO_END:
            note = notes.get(name)
            if name in untraced["host"]:
                value = untraced["host"][name]
                host = f"host {value:.6g} {unit}"
                note = f"{host}; {note}" if note else host
            _print_metric(name, untraced["e2e"][name], unit, note)
        for name, value in untraced.get("extra", {}).items():
            unit = "ratio" if name == "failed_frac" else "ms"
            _print_metric(name, value, unit, notes.get(name))
        metrics = {name: {"value": untraced["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
