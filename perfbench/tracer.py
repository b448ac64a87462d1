"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps the functions and methods of each ``repro`` layer module
from the outside, so no file under ``src/`` changes. It records two kinds
of data:

* **Accumulators** for hot-path functions (the simulator layers): per
  (layer, function) a call count, total time and self time. Self time is
  total time minus the time of wrapped calls nested inside it, so the self
  times of all wrapped functions partition the wall time they cover.
* **Spans** for coarse boundaries (a trial, a network run, and every
  function of the service layers: lease, upload, commit, HTTP request,
  summary query): name, layer, start, end, self time, span id, parent span
  id, trace id (trial id or job id) and thread.

Both use ``time.monotonic_ns`` (CLOCK_MONOTONIC), so spans written by the
``serve`` and ``work`` processes line up with the benchmark client's own
timestamps. Everything stays in memory until :meth:`Tracer.dump`.

Two rules make the wrapping complete:

* Names are patched where they are looked up. After wrapping, every
  module-level name in a loaded ``repro`` module that still points at an
  original function is re-pointed at its wrapper (``service/worker.py``
  imports ``run_trial`` by name).
* Install before any ``Network`` exists. The medium caches per-receiver
  closures built by ``Radio.bind_*_entry`` and fading samplers built by
  ``pair_sampler``; those factories are wrapped so that every closure they
  return is wrapped too.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic_ns

#: Layer name -> module (or package) prefixes whose code belongs to it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim.engine",),
    "medium": ("repro.phy.medium",),
    "radio": ("repro.phy.radio",),
    "reception": ("repro.phy.reception",),
    "fading": ("repro.phy.fading",),
    "mac": ("repro.mac", "repro.core"),
    "mobility": ("repro.net.mobility",),
    "kernels": ("repro.kernels",),
    "executor": ("repro.experiments.executor",),
    "worker": ("repro.service.worker",),
    "coordinator": ("repro.service.coordinator",),
    "queue": ("repro.service.queue",),
    "runtable": ("repro.service.runtable",),
    "http": ("repro.service.http_api",),
}

SIM_LAYERS = ("engine", "medium", "radio", "reception", "fading", "mac",
              "mobility", "kernels", "executor")
SERVICE_LAYERS = ("worker", "coordinator", "queue", "runtable", "http")

#: Modules imported before wrapping, so every layer is loaded.
_ENTRY_MODULES = ("repro.experiments.executor", "repro.network",
                  "repro.net.mobility")
_SERVICE_MODULES = ("repro.service.worker", "repro.service.coordinator",
                    "repro.service.http_api")

#: Factories whose returned callables run on the hot path and are wrapped
#: as accumulators of the same layer.
_CALLABLE_FACTORIES = {
    "radio.Radio.bind_start_entry", "radio.Radio._bind_faded_start",
    "radio.Radio.bind_interference_start_entry", "radio.Radio.bind_end_entry",
    "radio.Radio.bind_interference_end_entry",
    "fading.FadingModel.pair_sampler", "fading.NoFading.pair_sampler",
    "fading.GaussianBlockFading.pair_sampler",
    "fading.LosNlosMixtureFading.pair_sampler",
}

#: Simulator-side functions recorded as spans rather than accumulators.
_SPAN_FUNCTIONS = {"executor.run_trial", "network.Network.run"}

#: Parameter names whose value identifies the trace a span belongs to.
_TRACE_PARAMS = ("job_id", "spec", "trial", "result", "job")


def _trace_id(value) -> Optional[str]:
    if isinstance(value, str):
        return value
    for attr in ("trial_id", "job_id"):
        found = getattr(value, attr, None)
        if isinstance(found, str):
            return found
    return None


class Tracer:
    """Wraps layer code in one process and keeps what it records."""

    def __init__(self, role: str):
        self.role = role
        self.accs: Dict[Tuple[str, str], List[int]] = {}
        self.spans: List[tuple] = []
        self.sim: Dict[str, float] = {
            "runs": 0, "census_delivered": 0.0, "census_interference": 0.0,
            "frames_sent": 0, "frames_ok": 0,
        }
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._originals: Dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # Per-thread stacks
    # ------------------------------------------------------------------
    def _init_thread(self) -> list:
        tls = self._tls
        tls.st = [0]      # child time of each open wrapped call
        tls.sp = [0]      # ids of the open spans (0 = no parent)
        return tls.st

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _acc(self, layer: str, name: str) -> List[int]:
        acc = self.accs.get((layer, name))
        if acc is None:
            acc = self.accs[(layer, name)] = [0, 0, 0]
        return acc

    def accumulate(self, fn: Callable, layer: str, name: str) -> Callable:
        acc = self._acc(layer, name)
        tls = self._tls
        init = self._init_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = init()
            st.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = st.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child
                st[-1] += dt

        wrapper.__traced__ = True
        return wrapper

    def factory(self, fn: Callable, layer: str, name: str) -> Callable:
        """Accumulate ``fn`` and wrap every callable it returns."""
        timed = self.accumulate(fn, layer, name)
        inner_name = name.rsplit(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if callable(out) and not getattr(out, "__traced__", False):
                label = getattr(out, "__name__", "closure")
                out = self.accumulate(out, layer,
                                      f"{inner_name}.<{label}>")
            return out

        wrapper.__traced__ = True
        return wrapper

    def span(self, fn: Callable, layer: str, name: str,
             label: Optional[Callable] = None) -> Callable:
        """Record every call of ``fn`` as a span. ``label(name, args)``
        may refine the span name (HTTP routes)."""
        spans = self.spans
        tls = self._tls
        init = self._init_thread
        ids = self._ids
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        where = next(((i, p) for i, p in enumerate(params)
                      if p in _TRACE_PARAMS), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = init()
            sp = tls.sp
            sid = next(ids)
            parent = sp[-1]
            trace = None
            if where is not None:
                idx, pname = where
                value = (args[idx] if idx < len(args)
                         else kwargs.get(pname))
                trace = _trace_id(value)
            span_name = name if label is None else label(name, args)
            st.append(0)
            sp.append(sid)
            t0 = clock()
            err = None
            ret = None
            try:
                ret = fn(*args, **kwargs)
                return ret
            except BaseException as exc:
                status = getattr(exc, "status", None)
                err = type(exc).__name__ + (
                    f":{status}" if status is not None else "")
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                child = st.pop()
                sp.pop()
                st[-1] += dt
                spans.append((span_name, layer, t0, t1, dt - child, sid,
                               parent, trace, threading.get_ident(), err,
                               ret is not None))

        wrapper.__traced__ = True
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, service: bool = False) -> None:
        """Import and wrap every layer; then re-point by-name imports."""
        for mod in _ENTRY_MODULES + (_SERVICE_MODULES if service else ()):
            importlib.import_module(mod)
        layers = SIM_LAYERS + (SERVICE_LAYERS if service else ())
        for name, module in sorted(sys.modules.items()):
            layer = self._layer_of(name, layers)
            if layer is not None and module is not None:
                self._wrap_module(module, layer)
        self._wrap_network_run()
        if service:
            self._wrap_http()
            import urllib.request

            urllib.request.urlopen = self.span(
                urllib.request.urlopen, "http", "urllib.urlopen")
        self._repoint_names()

    @staticmethod
    def _layer_of(module_name: str, layers) -> Optional[str]:
        for layer in layers:
            for prefix in LAYERS[layer]:
                if module_name == prefix or module_name.startswith(prefix + "."):
                    return layer
        return None

    def _wrapper_for(self, fn, layer: str, name: str) -> Callable:
        if name in _CALLABLE_FACTORIES:
            return self.factory(fn, layer, name)
        if layer in SERVICE_LAYERS or name in _SPAN_FUNCTIONS:
            return self.span(fn, layer, name)
        return self.accumulate(fn, layer, name)

    def _wrap_module(self, module: types.ModuleType, layer: str) -> None:
        modname = module.__name__
        short = modname.rsplit(".", 1)[-1]
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                if value.__module__ != modname or attr.startswith("__"):
                    continue
                wrapped = self._wrapper_for(value, layer, f"{short}.{attr}")
                self._originals[id(value)] = wrapped
                setattr(module, attr, wrapped)
            elif isinstance(value, type) and value.__module__ == modname:
                self._wrap_class(value, layer, short)

    def _wrap_class(self, cls: type, layer: str, short: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in ("__init__", "__call__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                if getattr(value, "__traced__", False):
                    continue
                setattr(cls, attr, self._wrapper_for(value, layer, name))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if isinstance(inner, types.FunctionType):
                    setattr(cls, attr, type(value)(
                        self._wrapper_for(inner, layer, name)))

    def _wrap_network_run(self) -> None:
        """``Network.run`` is the executor's boundary with the engine; its
        span also samples the per-trial simulated statistics (fan-out
        census, data frames sent and received intact)."""
        from repro.network import Network

        timed = self.span(Network.run, "executor", "network.Network.run")
        sim = self.sim

        @functools.wraps(Network.run)
        def run(net, *args, **kwargs):
            result = timed(net, *args, **kwargs)
            census = net.medium.fanout_census()
            if census:
                n = len(census)
                sim["census_delivered"] += sum(d for d, _ in census.values()) / n
                sim["census_interference"] += sum(i for _, i in census.values()) / n
            sim["runs"] += 1
            for node in net.nodes.values():
                stats = node.mac.stats
                sim["frames_sent"] += stats.data_frames_sent
                sim["frames_ok"] += stats.data_frames_received_ok
            return result

        run.__traced__ = True
        Network.run = run

    def _wrap_http(self) -> None:
        """Label HTTP spans by route, and count error replies."""
        from repro.service import http_api

        handler = http_api._Handler

        def route(name, args):
            req = args[0]
            method = args[1] if len(args) > 1 else "GET"
            path = req.path.split("?", 1)[0]
            parts = [p for p in path.split("/") if p]
            if parts[:1] == ["jobs"] and len(parts) >= 2:
                parts[1] = "id"
            return "http " + "_".join([method.lower()] + parts)

        handler._dispatch = self.span(
            handler._dispatch.__wrapped__, "http", "http_api._Handler._dispatch",
            label=route)
        send = handler._send
        errors = self._acc("http", "errors")

        @functools.wraps(send)
        def _send(req, status, payload):
            if status >= 400:
                errors[0] += 1
            return send(req, status, payload)

        _send.__traced__ = True
        handler._send = _send

    def _repoint_names(self) -> None:
        originals = self._originals
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay."""
        for acc in self.accs.values():
            acc[0] = acc[1] = acc[2] = 0
        del self.spans[:]
        for key in self.sim:
            self.sim[key] = 0

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        # list() copies under the interpreter lock: daemon threads may
        # still be recording while the process exits.
        accs = list(self.accs.items())
        spans = list(self.spans)
        payload = {
            "role": self.role,
            "accs": [[layer, name, *acc] for (layer, name), acc in accs],
            "spans": [list(s) for s in spans],
            "sim": self.sim,
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as f:
            json.dump(payload, f)
