"""CI kernel-parity gate: the kernel layer must not move a single bit.

Runs the fig12 smoke sweep twice in fresh interpreters — once with the
kernels force-disabled (``REPRO_KERNEL_BACKEND=scalar``: per-draw RNG, no
chunk grids, interpreted run loop) and once with the default backend
(``python``: buffered streams + saturated-region grids) — and diffs both
the persisted per-trial result JSON and the rendered figure report
**byte for byte**. Any divergence means a kernel broke the lockstep /
grid-exactness contracts (see DESIGN.md "Kernels") and fails the job.

It also diffs the link census: ``float.hex`` of every directed pair's
``(src, dst, rss_dbm, prr)`` for testbed seeds 1 and 11, each backend in
a fresh interpreter. The census bisects the chunk kernel's saturated
regions out of its fading quadrature, so any drift there fails here
before it can move a scenario draw.

Usage::

    python benchmarks/check_kernel_parity.py [--backend python]

``--backend`` selects which enabled backend to diff against the scalar
reference (``native`` additionally exercises the compiled run loop; it
needs a C toolchain on the runner).
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fig12(backend: str, out_path: str) -> bytes:
    """One fig12 smoke sweep in a fresh interpreter; returns the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_KERNEL_BACKEND"] = backend
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "fig12",
            "--scale",
            "smoke",
            "--out",
            out_path,
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        timeout=1800,
    )
    if proc.returncode != 0:
        sys.stderr.buffer.write(proc.stderr)
        raise SystemExit(
            f"fig12 smoke run failed under backend {backend!r} "
            f"(exit {proc.returncode})"
        )
    return proc.stdout


#: Testbed seeds whose link census is diffed between backends.
CENSUS_SEEDS = (1, 11)

_CENSUS_SCRIPT = """
import sys
from repro.net.testbed import Testbed

for seed in map(int, sys.argv[1:]):
    for ls in Testbed(seed).links.all_links():
        print(seed, ls.src, ls.dst, ls.rss_dbm.hex(), ls.prr.hex())
"""


def run_census(backend: str) -> bytes:
    """The census of every seed in ``CENSUS_SEEDS``, one line per directed
    pair, computed in a fresh interpreter under ``backend``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_KERNEL_BACKEND"] = backend
    proc = subprocess.run(
        [sys.executable, "-c", _CENSUS_SCRIPT, *map(str, CENSUS_SEEDS)],
        env=env,
        cwd=REPO,
        capture_output=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.buffer.write(proc.stderr)
        raise SystemExit(
            f"link census failed under backend {backend!r} (exit {proc.returncode})"
        )
    return proc.stdout


#: Elapsed-wall-clock annotations in the rendered report (e.g. ``[2.8s]``)
#: are the one legitimately nondeterministic part of the output.
_WALL_CLOCK = re.compile(rb"\[\d+(?:\.\d+)?s\]")


def mask_wall_clock(report: bytes) -> bytes:
    return _WALL_CLOCK.sub(b"[Xs]", report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        default="python",
        help="enabled backend to compare against the scalar reference "
        "(default python)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        ref_path = os.path.join(tmp, "fig12_scalar.json")
        cur_path = os.path.join(tmp, f"fig12_{args.backend}.json")
        ref_report = mask_wall_clock(run_fig12("scalar", ref_path))
        cur_report = mask_wall_clock(run_fig12(args.backend, cur_path))
        with open(ref_path, "rb") as fh:
            ref_json = fh.read()
        with open(cur_path, "rb") as fh:
            cur_json = fh.read()
    ref_census = run_census("scalar")
    cur_census = run_census(args.backend)

    failed = False
    if ref_census != cur_census:
        print(
            f"KERNEL PARITY VIOLATION: link census differs between scalar "
            f"and {args.backend} (seeds {CENSUS_SEEDS})"
        )
        for a, b in zip(ref_census.splitlines(), cur_census.splitlines()):
            if a != b:
                print(f"  scalar : {a!r}")
                print(f"  {args.backend}: {b!r}")
                break
        failed = True
    if ref_json != cur_json:
        print(
            f"KERNEL PARITY VIOLATION: per-trial results differ between "
            f"scalar and {args.backend} ({len(ref_json)} vs "
            f"{len(cur_json)} bytes)"
        )
        failed = True
    if ref_report != cur_report:
        print(
            f"KERNEL PARITY VIOLATION: rendered fig12 report differs "
            f"between scalar and {args.backend}"
        )
        for i, (a, b) in enumerate(
            zip(ref_report.splitlines(), cur_report.splitlines())
        ):
            if a != b:
                print(f"  first differing line {i}:")
                print(f"    scalar : {a!r}")
                print(f"    {args.backend}: {b!r}")
                break
        failed = True
    if failed:
        return 1
    print(
        f"kernel parity ok: fig12 smoke is byte-identical under "
        f"scalar and {args.backend} ({len(ref_json)} bytes of trial "
        f"results, {len(ref_report)} bytes of report, "
        f"{len(ref_census.splitlines())} census lines)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
