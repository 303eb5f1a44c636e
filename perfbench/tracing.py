"""Layer spans for traced rounds, and the self-time ledger built from them.

:class:`Tracer` wraps one public function per layer boundary where its
caller binds the name (``hls.compiler`` binds ``interpret`` and
``estimate_cycles``, ``vortex.runtime`` binds ``compile_kernel``,
``harness.coverage`` binds ``run_benchmark``) and records every call as
a :class:`repro.profiling.Profiler` span on the ``time.perf_counter``
clock in microseconds. Each span carries the ID of the experiment point
or service job it serves and the sequence number of its parent span.
Spans and counters stay in memory until :meth:`Tracer.dump`.

:func:`ledger` turns spans into self times. Within one thread, self
time is a span's duration minus the part its children cover. The
service workload spreads work over a daemon scheduler thread, daemon
request threads and client threads, so its spans overlap across
threads; every instant of the traced window is then charged once, to
the innermost span of the highest-priority thread busy at that instant
(set-up phases first, then the thread that runs experiment points, then
other daemon threads, then clients). An instant no span covers is
``residual``. Layer self times plus residual therefore equal the traced
wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter

#: (layer, module that binds the name, attribute path, Tracer method
#: that counts the call's work) for every wrapped boundary. The
#: engine's point function is wrapped per ``ExperimentEngine.run`` call
#: as layer ``benchmarks``.
TARGETS = (
    ("simx", "repro.vortex.simx.machine", "Machine.launch",
     "_after_launch"),
    ("vortex.glue", "repro.vortex.runtime", "VortexCompiledKernel.launch",
     None),
    ("vortex.compile", "repro.vortex.runtime", "compile_kernel",
     "_after_compile"),
    ("ocl", "repro.hls.compiler", "interpret", "_after_interpret"),
    ("hls.build", "repro.hls.compiler", "HLSBackend.build", "_after_build"),
    ("hls.estimate", "repro.hls.compiler", "estimate_cycles", None),
    ("benchmarks", "repro.harness.coverage", "run_benchmark", None),
    ("engine", "repro.harness.engine", "ExperimentEngine.run", None),
    ("cache.get", "repro.harness.result_cache", "ResultCache.get",
     "_after_get"),
    ("cache.put", "repro.harness.result_cache", "ResultCache.put",
     "_after_put"),
    ("service.handle", "repro.service.daemon",
     "ExperimentDaemon.handle_request", "_after_handle"),
    ("service.journal", "repro.service.journal", "Journal.append",
     "_after_append"),
    ("service.client", "repro.service.client", "ServiceClient.submit",
     "_after_submit"),
    ("service.client", "repro.service.client", "ServiceClient.results",
     "_after_results"),
)

#: the daemon thread that runs experiment points.
SCHEDULER_THREAD = "repro-service-scheduler"


def spec_id(spec: dict) -> str:
    """Stable ID of a service job spec (also its point ID)."""
    if spec.get("kind") == "fig7-cell":
        return (f"{spec['benchmark']}-n{spec['n']}-c{spec['cores']}"
                f"-w{spec['warps']}-t{spec['threads']}")
    return f"{spec.get('kind')}-{spec.get('value')}-{spec.get('nonce', '')}"


def point_id(args: tuple) -> str:
    """ID of one engine point from its arguments: a service job spec,
    a (benchmark, config, n, ...) fig7 cell or a Table I row name."""
    first = args[0] if args else ""
    if isinstance(first, dict):
        return spec_id(first)
    if len(args) > 2 and hasattr(args[1], "label"):
        return f"{first}-{args[1].label()}-n{args[2]}"
    return str(first)


class Tracer:
    """Installs span wrappers at the layer boundaries of this process."""

    def __init__(self) -> None:
        from repro.harness.result_cache import MISS
        from repro.profiling import Profiler

        self.profiler = Profiler()
        self._miss = MISS
        #: counters are bumped from several daemon threads at once
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._seq = itertools.count()
        self._named: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        #: per-call samples that are not spans: daemon admission time
        #: per job, (start, end) of every client request.
        self.accepted_at: dict[str, float] = {}
        self.requests: dict[str, list[tuple[float, float]]] = {
            "submit": [], "results": []}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, layer: str, fn, after=None, new_id=None):
        tracer = self
        profiler = self.profiler
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_id = stack[-1] if stack else (None, None)
            sid = next(tracer._seq)
            job = new_id(args) if new_id is not None else parent_id
            stack.append((sid, job))
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                tid = threading.get_native_id()
                if tid not in tracer._named:
                    tracer._named.add(tid)
                    profiler.name_thread(os.getpid(), tid,
                                         threading.current_thread().name)
                profiler.complete(layer, "perfbench", start * 1e6,
                                  (end - start) * 1e6, pid=os.getpid(),
                                  tid=tid, args={"span": sid,
                                                 "parent": parent,
                                                 "id": job})
                if after is not None:
                    after(args, result, error, start, end)

        return wrapper

    # -- per-layer counters ------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._count_lock:
            self.profiler.count(name, delta)

    def _after_launch(self, args, result, error, start, end):
        if error is None:
            self._count("simx.launches")
            self._count("simx.cycles", result.cycles)
            self._count("simx.instructions", result.instructions)
            self._count("simx.ff_cycles", args[0].skip_stats["ff_cycles"])

    def _after_compile(self, args, result, error, start, end):
        self._count("vortex.compiles")

    def _after_interpret(self, args, result, error, start, end):
        self._count("ocl.interp_calls")
        if error is None:
            self._count("ocl.interp_instructions",
                                result.dynamic_instructions)

    def _after_build(self, args, result, error, start, end):
        self._count("hls.builds")
        if type(error).__name__ == "SynthesisError":
            self._count("hls.synthesis_failures")

    def _after_get(self, args, result, error, start, end):
        self._count("cache.gets")
        if error is None and result is not self._miss:
            self._count("cache.hits")

    def _after_put(self, args, result, error, start, end):
        self._count("cache.puts")

    def _after_handle(self, args, result, error, start, end):
        message = args[1]
        if (error is None and message.get("op") == "submit"
                and result.get("ok")):
            if result.get("coalesced"):
                self._count("service.coalesced")
            else:
                self._count("service.accepted")
                self.accepted_at[spec_id(message.get("job") or {})] = end

    def _after_append(self, args, result, error, start, end):
        self._count("journal.appended")

    def _after_submit(self, args, result, error, start, end):
        self.requests["submit"].append((start, end))

    def _after_results(self, args, result, error, start, end):
        self.requests["results"].append((start, end))

    def _engine_run(self, run):
        tracer = self
        traced_run = self._traced("engine", run)

        def engine_run(engine, fn, points, **kwargs):
            stats = engine.stats
            before = (stats.points, stats.failed, stats.retried)
            point_fn = tracer._traced("benchmarks", fn, new_id=point_id)
            try:
                return traced_run(engine, point_fn, points, **kwargs)
            finally:
                tracer._count("engine.points", stats.points - before[0])
                tracer._count("engine.failed", stats.failed - before[1])
                tracer._count("engine.retried", stats.retried - before[2])

        return engine_run

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module_name, path, after in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            if path == "ExperimentEngine.run":
                wrapped = self._engine_run(original)
            else:
                wrapped = self._traced(
                    layer, original,
                    after=getattr(self, after) if after else None)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------

    def payload(self) -> dict:
        """Plain-JSON spans, thread names and counters of this process."""
        report = self.profiler.report(title="perfbench")
        return {
            "spans": [[e.name, e.ts / 1e6, (e.ts + e.dur) / 1e6, e.pid,
                       e.tid, e.args["id"]]
                      for e in report.events if e.ph == "X"],
            "threads": {f"{pid}:{tid}": name for (pid, tid), name
                        in report.thread_names.items()},
            "counters": dict(report.counters),
            "accepted_at": self.accepted_at,
            "requests": self.requests,
            "chrome": report.chrome_trace()["traceEvents"],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.payload(), fh)


# -- ledger -----------------------------------------------------------------


def _innermost(spans: list[tuple[float, float, str]]
               ) -> list[tuple[float, float, str]]:
    """Non-overlapping (start, end, layer) pieces of one thread's nested
    spans, each charged to the innermost span covering it."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    pieces: list[tuple[float, float, str]] = []
    stack: list[tuple[float, str]] = []
    cursor = 0.0

    def advance(upto: float) -> None:
        nonlocal cursor
        if stack and upto > cursor:
            pieces.append((cursor, upto, stack[-1][1]))
        cursor = max(cursor, upto) if stack else upto

    for start, end, layer in spans:
        while stack and stack[-1][0] <= start:
            advance(stack[-1][0])
            stack.pop()
        advance(start)
        stack.append((end, layer))
    while stack:
        advance(stack[-1][0])
        stack.pop()
    return pieces


def ledger(threads: list[tuple[int, list[tuple[float, float, str]]]],
           windows: list[tuple[float, float]], normalized
           ) -> dict[str, float]:
    """Normalized self seconds per layer over the traced ``windows``.

    ``threads`` lists ``(priority, spans)`` per thread, lower priority
    values winning where threads overlap. ``normalized(a, b)`` converts
    a host interval to normalized seconds. The result has a
    ``residual`` entry; all entries sum to the normalized length of the
    windows.
    """
    pieces = [(priority, piece) for priority, spans in threads
              for piece in _innermost(spans)]
    totals: Counter = Counter()
    for lo, hi in windows:
        events: list[tuple[float, int, int, str]] = []
        for priority, (start, end, layer) in pieces:
            start, end = max(start, lo), min(end, hi)
            if end > start:
                events.append((start, 1, priority, layer))
                events.append((end, -1, priority, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Counter] = {}
        cursor = lo
        for at, delta, priority, layer in events + [(hi, 0, 0, "")]:
            if at > cursor:
                busy = [p for p, layers in active.items() if layers]
                if busy:
                    layers = active[min(busy)]
                    owner = max(sorted(layers), key=layers.__getitem__)
                else:
                    owner = "residual"
                totals[owner] += normalized(cursor, at)
                cursor = at
            if delta:
                layers = active.setdefault(priority, Counter())
                layers[layer] += delta
                if layers[layer] == 0:
                    del layers[layer]
    totals.setdefault("residual", 0.0)
    return dict(totals)
