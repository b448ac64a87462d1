"""Launcher for the processes the benchmark measures.

Runs a ``repro`` CLI command (``serve``, ``work``) or one in-process
sweep, optionally under the layer tracer, and writes what it recorded to
``--out`` when the command returns::

    python perfbench/launch.py --out stats.json -- serve --port 0 ...
    python perfbench/launch.py --out trace.json --trace -- work --url ...
    python perfbench/launch.py --out trace.json --trace --sweep fig12 --seed 3

Without ``--trace`` nothing is wrapped; the output then holds only the
event-core totals that ``repro.perf.recording`` collects. With ``--trace``
the wrappers are installed before the command builds any testbed or
network, then the normal CLI entry point (or the sweep) runs.

The launcher asks the kernel to SIGTERM it when the benchmark process that
spawned it dies (Linux ``PR_SET_PDEATHSIG``), so a killed benchmark leaves
no orphaned ``serve`` or ``work`` behind.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _die_with_parent() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="where to write the recorded data (JSON)")
    parser.add_argument("--trace", action="store_true",
                        help="install the layer tracer first")
    parser.add_argument("--sweep", default=None,
                        help="run this in-process workload instead of a CLI "
                             "command")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by repro CLI arguments")
    args = parser.parse_args(argv)
    if args.sweep is not None and not args.trace:
        parser.error("--sweep runs the traced in-process pass; add --trace")
    _die_with_parent()

    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    role = args.sweep or (cli[0] if cli else "none")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(role)
        tracer.install(service=args.sweep is None)

    from repro import perf

    extra: dict = {"role": role, "pid": os.getpid()}
    code = 1
    with perf.recording() as rec:
        try:
            if args.sweep is not None:
                import workloads

                extra["sweep"] = workloads.traced_sweep(
                    args.sweep, args.seed, tracer)
                code = 0
            else:
                from repro.cli import main as cli_main

                code = cli_main(cli)
        finally:
            extra["events"] = rec.events
            extra["run_wall_s"] = rec.run_wall_seconds
            extra["exit_code"] = code
            if tracer is not None:
                tracer.dump(args.out, extra)
            else:
                import json

                with open(args.out, "w") as f:
                    json.dump(extra, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
