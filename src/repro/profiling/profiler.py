"""Cross-executor profiler: counters, spans, and trace events.

Every executor in the repository — the reference interpreter, the SimX
cycle simulator, and the HLS pipeline model — exposes performance
counters of its own (``RunResult.op_counts``, ``CoreStats``,
``PipelineEstimate``). The :class:`Profiler` unifies them behind one
low-overhead recording surface:

* **counters** — monotonically accumulated named values
  (``profiler.count("simx.instructions", 42)``);
* **trace events** — timestamped spans/instants/counter-samples on an
  executor-defined timeline (cycles for SimX and the HLS model, dynamic
  instruction steps for the interpreter, wall-clock microseconds for
  host-side harness code), exported in the Chrome ``chrome://tracing`` /
  Perfetto JSON format;
* **metadata** — free-form key/value context (kernel name, geometry,
  backend) carried into every report.

The **null-object fast path**: call sites hold a profiler that is either
a live :class:`Profiler` or the shared :data:`NULL_PROFILER`, and guard
instrumentation with ``if profiler.enabled:``. Disabled profiling
therefore costs one attribute test on a singleton — no allocation, no
branching in inner loops beyond the guard — which keeps the simulators'
hot paths unchanged when nobody is measuring (asserted by the overhead
benchmark in ``tests/test_profiling.py``).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "RATIOS",
    "Span",
    "TraceEvent",
    "ensure_profiler",
]

#: Every ratio a report derives: name -> (numerator, denominator).
#: Executors book only counts, so a run of several launches reports the
#: ratio of its summed counts, not a sum of per-launch ratios.
RATIOS = {
    "simx.dcache.hit_rate": ("simx.dcache.hits", "simx.dcache.accesses"),
    "simx.dram.row_hit_rate": ("simx.dram.row_hits", "simx.dram.requests"),
    # exact per launch: issue_cycles = iterations x II
    "hls.initiation_interval": ("hls.issue_cycles", "hls.iterations"),
    "hls.occupancy.issue": ("hls.issue_cycles", "hls.cycles"),
    "hls.occupancy.memory": ("hls.memory_cycles", "hls.cycles"),
    "interp.steps_per_item": ("interp.dynamic_instructions",
                              "interp.items_executed"),
}


@dataclass
class TraceEvent:
    """One Chrome-trace event (phases ``X``/``i``/``C`` are used)."""

    name: str
    cat: str
    ph: str  # "X" complete, "i" instant, "C" counter
    ts: float  # timeline units (cycles / steps / us)
    dur: float = 0.0  # only for ph == "X"
    pid: int = 0
    tid: int = 0
    args: dict[str, Any] | None = None

    def as_chrome(self) -> dict[str, Any]:
        ev: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": float(self.ts),
            "pid": int(self.pid),
            "tid": int(self.tid),
        }
        if self.ph == "X":
            ev["dur"] = float(self.dur)
        if self.ph == "i":
            ev["s"] = "t"  # thread-scoped instant
        if self.args is not None:
            ev["args"] = self.args
        return ev


@dataclass
class Span:
    """What :meth:`Profiler.span` yields: ``seconds`` is the span's
    wall-clock duration, set when it closes; ``name`` may be refined
    while it is open."""

    name: str
    seconds: float = 0.0


class Profiler:
    """Accumulates counters and trace events for one measured run.

    A profiler is deliberately executor-agnostic: the instrumented code
    decides what the timeline means (SimX records cycles, the HLS model
    records modelled pipeline cycles, the interpreter records dynamic
    instruction steps) and annotates the report via :meth:`set_meta`
    so renderers can label axes.
    """

    #: the single guard call sites test before doing any profiling work.
    enabled: bool = True

    #: cycle-granularity used by SimX for issue/stall/idle sampling.
    DEFAULT_CYCLE_BUCKET = 256

    def __init__(self, cycle_bucket: int = DEFAULT_CYCLE_BUCKET):
        if cycle_bucket < 1:
            raise ValueError("cycle_bucket must be >= 1")
        self.cycle_bucket = cycle_bucket
        self.counters: Counter = Counter()
        self.events: list[TraceEvent] = []
        self.meta: dict[str, Any] = {}
        self.process_names: dict[int, str] = {}
        self.thread_names: dict[tuple[int, int], str] = {}
        self._wall_origin = time.perf_counter()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] += delta

    def count_many(self, values: Mapping[str, float], prefix: str = "") -> None:
        for key, value in values.items():
            self.counters[f"{prefix}{key}"] += value

    # -- trace events ------------------------------------------------------

    def complete(self, name: str, cat: str, ts: float, dur: float,
                 pid: int = 0, tid: int = 0,
                 args: dict[str, Any] | None = None) -> None:
        """A span ``[ts, ts + dur)`` on the (pid, tid) track."""
        self.events.append(
            TraceEvent(name, cat, "X", ts, dur, pid, tid, args))

    def instant(self, name: str, cat: str, ts: float, pid: int = 0,
                tid: int = 0, args: dict[str, Any] | None = None) -> None:
        self.events.append(
            TraceEvent(name, cat, "i", ts, 0.0, pid, tid, args))

    def sample(self, name: str, ts: float, values: Mapping[str, float],
               pid: int = 0) -> None:
        """A Chrome counter-track sample (stacked area in the viewer)."""
        self.events.append(
            TraceEvent(name, "counter", "C", ts, 0.0, pid, 0,
                       {k: float(v) for k, v in values.items()}))

    # -- naming / metadata -------------------------------------------------

    def name_process(self, pid: int, name: str) -> None:
        self.process_names[pid] = name

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        self.thread_names[(pid, tid)] = name

    def set_meta(self, key: str, value: Any) -> None:
        self.meta[key] = value

    # -- host-side wall-clock spans ---------------------------------------

    def wall_us(self) -> float:
        """Microseconds since profiler creation (host timeline)."""
        return (time.perf_counter() - self._wall_origin) * 1e6

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "host", pid: int = 0,
             tid: int = 0, args: dict[str, Any] | None = None
             ) -> Iterator[Span]:
        """Wall-clock span for host/harness phases (DSE, engine runs).

        The yielded :class:`Span` carries the duration once the span
        closes. The null profiler times its spans too, so a caller reads
        a phase's duration from its span whether or not anyone records.
        """
        handle = Span(name)
        start = self.wall_us()
        try:
            yield handle
        finally:
            dur = self.wall_us() - start
            handle.seconds = dur / 1e6
            self.complete(handle.name, cat, start, dur,
                          pid=pid, tid=tid, args=args)

    # -- reporting ---------------------------------------------------------

    def report(self, title: str = "profile", backend: str = "") -> Any:
        """Snapshot the run, adding each :data:`RATIOS` entry whose
        denominator is nonzero."""
        from .report import ProfileReport

        counters = dict(self.counters)
        for name, (num, den) in RATIOS.items():
            if counters.get(den):
                counters[name] = counters.get(num, 0) / counters[den]
        return ProfileReport(
            title=title,
            backend=backend or str(self.meta.get("backend", "")),
            counters=counters,
            events=list(self.events),
            meta=dict(self.meta),
            process_names=dict(self.process_names),
            thread_names=dict(self.thread_names),
        )


class NullProfiler(Profiler):
    """Disabled profiler: every recording method is a no-op.

    Instrumented code may call any method unguarded, but hot paths
    should test ``profiler.enabled`` once and skip the bookkeeping that
    *produces* the arguments — that is where the real cost is.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def count_many(self, values: Mapping[str, float], prefix: str = "") -> None:
        pass

    def complete(self, name: str, cat: str, ts: float, dur: float,
                 pid: int = 0, tid: int = 0,
                 args: dict[str, Any] | None = None) -> None:
        pass

    def instant(self, name: str, cat: str, ts: float, pid: int = 0,
                tid: int = 0, args: dict[str, Any] | None = None) -> None:
        pass

    def sample(self, name: str, ts: float, values: Mapping[str, float],
               pid: int = 0) -> None:
        pass

    def name_process(self, pid: int, name: str) -> None:
        pass

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        pass

    def set_meta(self, key: str, value: Any) -> None:
        pass


#: Shared disabled profiler — the default for every instrumented API.
NULL_PROFILER = NullProfiler()


def ensure_profiler(profiler: Profiler | None) -> Profiler:
    """Normalise an optional profiler argument to a usable instance."""
    return NULL_PROFILER if profiler is None else profiler
