"""CI gate: the sweep service has one execution path.

The coordinator leases jobs and records what workers upload; every trial
runs in a ``repro.service.worker.Worker`` (a ``cli work`` daemon over
HTTP, or one of ``serve``'s in-process workers over
``repro.service.transport``). The transport is the only seam between the
two, so this lint walks the AST of both files and fails when:

* ``src/repro/service/coordinator.py`` imports — or reaches through a
  module attribute — ``run_trial``, ``make_backend`` or
  ``SerialBackend`` (trial execution creeping back into the server);
* ``src/repro/service/worker.py`` imports ``repro.service.coordinator``
  in any form (a worker that calls the server directly, around the
  transport and its fault sites).

Usage::

    python benchmarks/check_service_layering.py
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVICE = os.path.join(REPO, "src", "repro", "service")
COORDINATOR = os.path.join(SERVICE, "coordinator.py")
WORKER = os.path.join(SERVICE, "worker.py")

EXECUTION_NAMES = {"run_trial", "make_backend", "SerialBackend"}
COORDINATOR_MODULE = "repro.service.coordinator"


def _parse(path: str) -> ast.AST:
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _absolute(node: ast.ImportFrom) -> str:
    """The module an ``ImportFrom`` names, resolved against the service
    package when it is relative."""
    if not node.level:
        return node.module or ""
    parts = "repro.service".split(".")[: max(0, 3 - node.level)]
    return ".".join(parts + ([node.module] if node.module else []))


def lint_coordinator(path: str = COORDINATOR) -> list:
    """(line, message) for every execution name the coordinator uses."""
    violations = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in EXECUTION_NAMES:
                    violations.append(
                        (node.lineno, f"imports {alias.name} — trials run "
                                      "in service.worker, not here"))
        elif isinstance(node, ast.Attribute) and node.attr in EXECUTION_NAMES:
            violations.append(
                (node.lineno, f"reaches {node.attr} through a module — "
                              "trials run in service.worker, not here"))
    return violations


def lint_worker(path: str = WORKER) -> list:
    """(line, message) for every import of the coordinator module."""
    violations = []
    for node in ast.walk(_parse(path)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node)
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        for name in names:
            if name == COORDINATOR_MODULE or name.startswith(
                COORDINATOR_MODULE + "."
            ):
                violations.append(
                    (node.lineno, "imports service.coordinator — talk to "
                                  "it through the transport"))
                break
    return violations


def main() -> int:
    failed = False
    for path, lint in ((COORDINATOR, lint_coordinator), (WORKER, lint_worker)):
        rel = os.path.relpath(path, REPO)
        for line, message in lint(path):
            failed = True
            print(f"{rel}:{line}: {message}")
    if failed:
        print("service layering lint FAILED")
        return 1
    print("service layering lint ok (coordinator runs no trials; worker "
          "reaches it only through the transport)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
