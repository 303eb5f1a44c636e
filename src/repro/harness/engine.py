"""Parallel, memoised, fault-tolerant experiment engine.

The paper's experiment grids are embarrassingly parallel: the Figure 7
sweep is 16 independent SimX runs per benchmark, Table I is 28
independent benchmark rows, and the conclusion's design-space
exploration verifies its top candidates with independent simulations.
:class:`ExperimentEngine` fans such *experiment points* across a
``concurrent.futures.ProcessPoolExecutor`` and memoises each point in a
:class:`~repro.harness.result_cache.ResultCache`, so

* ``--jobs N`` scales a sweep across cores with **bit-identical**
  results to a serial run (points are pure functions of their pickled
  arguments, and results are reassembled in submission order), and
* ``--cache-dir`` makes repeated invocations return instantly, with
  automatic invalidation when the simulator source changes.

The paper's headline result is *coverage* — which of 28 benchmarks each
flow survives — so the engine must degrade per point rather than die
mid-campaign. Fault tolerance is built in:

* **structured failure capture** — a failing point becomes a
  :class:`~repro.errors.PointFailure` (exception type, message,
  traceback, attempt count) in the result list instead of a propagated
  exception (``keep_going=True``), or raises
  :class:`~repro.errors.ExperimentAborted` wrapping that payload
  (the default fail-fast policy);
* **bounded retries with exponential backoff** — ``retries=N`` re-runs
  a failed point up to N more times before recording the failure;
* **per-point watchdog timeout** — ``point_timeout=T`` cancels a point
  running longer than T seconds (the stuck worker pool is torn down,
  its processes terminated, and the innocent in-flight points
  resubmitted on a fresh pool without being charged an attempt);
* **worker-crash recovery** — a died worker (``BrokenProcessPool``)
  poisons every in-flight future without naming the culprit, so the
  engine respawns the pool and re-runs the lost points **solo** (one in
  flight at a time): a repeat crash then identifies the killer exactly,
  which is charged an attempt (and eventually recorded as a
  ``WorkerCrashed`` failure), while the innocent bystanders complete
  untouched;
* **incremental cache commit** — every point's result is stored the
  moment it completes, so an interrupted run resumes from where it
  died, not from zero (failures are never cached: a re-run retries
  them).

One scheduling loop runs every point, and whether an attempt runs
inline or on the pool only decides *where* it runs. Either way the
attempt is made by the same wrapper (:func:`_call_point`) and its
outcome settled by the same code — commit, uncharged preemption
requeue, retry with backoff, or finalise — so an inline and a pooled
run of the same fault plan yield **identical** results,
``PointFailure`` payloads and :class:`EngineStats` counters. A retried
or requeued point goes back to the head of the queue, so an inline run
settles it before it starts the next point. Fault injection for tests
hooks in at the same wrapper via :mod:`repro.harness.faults`
(``REPRO_FAULT_PLAN``), which spawned workers inherit through the
environment.

Attempts run inline in the calling process under ``jobs=1``, and for a
lone point without a watchdog; no pickling is required there, which
keeps closures (e.g. test fakes) usable. Inline execution cannot
preempt a hung point, so there ``point_timeout`` is enforced *post
hoc*: an overrunning point is recorded as the same ``PointTimeout``
failure, after it returns. Pooled point functions must be
**module-level callables with picklable arguments** — the engine uses
the ``spawn`` start method so workers import a fresh interpreter
(fork-safety with numpy/BLAS thread pools is not assumed), which is
also what CI runners and macOS default to.

Execution policy lives only on the engine: every harness runner takes
the caller's engine as ``engine=`` and otherwise runs on the inline,
fail-fast engine of :func:`default_engine`.

Profiling composes per point, not per engine: a profiled point function
creates its own :class:`~repro.profiling.Profiler` inside the worker
and returns the (picklable) :class:`~repro.profiling.ProfileReport`,
which the caller saves exactly as a serial run would — profile output
is byte-identical whether ``jobs=1`` or ``jobs=8``.
"""

from __future__ import annotations

import os
import random
import time
import traceback as _tb
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Sequence

from ..errors import ExperimentAborted, PointFailure
from ..profiling import Profiler, ensure_profiler
from .faults import FAULT_PLAN_ENV
from .result_cache import MISS, ResultCache

__all__ = ["EngineStats", "ExperimentEngine", "close_all_engines",
           "default_engine", "resolve_jobs"]

#: every constructed engine, tracked weakly so interrupt handlers
#: (``python -m repro`` on SIGINT/SIGTERM) can tear down worker pools
#: instead of leaking orphaned worker processes.
_LIVE_ENGINES: "weakref.WeakSet[ExperimentEngine]" = weakref.WeakSet()


def close_all_engines() -> int:
    """Terminate the worker pools of every live engine (signal cleanup).

    Uses the pool-teardown path (which *terminates* worker processes)
    rather than a graceful ``shutdown(wait=True)``, because the caller
    is an interrupt handler: a stuck point must not block process exit.
    Returns the number of pools torn down.
    """
    closed = 0
    for engine in list(_LIVE_ENGINES):
        if engine._pool is not None:
            engine._respawn_pool()
            closed += 1
    return closed


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``0``/``None`` means one per CPU."""
    if not jobs:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    return jobs


@dataclass
class EngineStats:
    """The engine's one record of its runs, summed over every run; the
    profiler's ``engine.<label>.*`` counters are folded from it."""

    jobs: int = 1
    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    #: points that exhausted their retry budget and were recorded as
    #: :class:`~repro.errors.PointFailure`.
    failed: int = 0
    #: retry attempts made (each resubmission of a charged point).
    retried: int = 0
    #: cooperative preemptions requeued for resume (never charged as
    #: retries: the point snapshotted its progress and yielded).
    preempted: int = 0
    #: summed durations of the runs' ``engine:`` profiler spans.
    wall_s: float = 0.0
    cache_dir: str = ""

    def summary(self) -> str:
        """One-line run summary (the cache-hit counter the CLI prints)."""
        parts = [
            f"{self.points} points",
            f"{self.executed} executed",
            f"{self.cache_hits} cache hits",
            f"failed={self.failed}",
            f"retried={self.retried}",
            f"preempted={self.preempted}",
            f"jobs={self.jobs}",
            f"{self.wall_s:.1f}s",
        ]
        if self.cache_dir:
            parts.append(f"cache={self.cache_dir}")
        return "engine: " + ", ".join(parts)


@dataclass
class _Point:
    index: int
    args: tuple
    key: str | None = None
    value: Any = None
    #: fault-injection / diagnostics site name ("<label>#<index>").
    site: str = ""
    #: attempts made so far (inline or on the pool).
    attempts: int = 0
    #: True once the point was finalised as a PointFailure.
    failed: bool = False
    #: highest simulated cycle a preemption snapshot of this point
    #: reported; a requeue is only free while this strictly advances.
    last_preempt_cycle: int = -1


_OK, _ERR = "ok", "err"

#: the :class:`EngineStats` counters a live profiler mirrors, per run,
#: as ``engine.<label>.<name>``.
_MIRRORED = ("points", "cache_hits", "executed", "failed")


def _failure_payload(exc: BaseException) -> dict:
    payload = {
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(_tb.format_exception(exc)),
    }
    # SimulationPreempted carries the snapshot cycle; the engine's
    # requeue logic uses it as the forward-progress guarantee.
    cycle = getattr(exc, "cycle", None)
    if cycle is not None:
        payload["cycle"] = int(cycle)
    return payload


def _timeout_payload(timeout: float) -> dict:
    return {
        "exc_type": "PointTimeout",
        "message": f"point exceeded {timeout:g}s point-timeout",
        "traceback": "",
    }


def _crash_payload() -> dict:
    return {
        "exc_type": "WorkerCrashed",
        "message": "worker process died before the point completed "
                   "(BrokenProcessPool)",
        "traceback": "",
    }


def _noop() -> None:
    """Warm-up task: booting a spawned worker is not point execution."""


def _call_point(fn: Callable[..., Any], args: tuple, site: str):
    """One attempt at one point, with structured failure capture.

    Runs in a worker process or inline, so a failing point serialises
    to the same ``("err", payload)`` either way — same exception type,
    message and traceback, which is what makes inline and pooled
    failure results byte-identical.
    """
    try:
        if os.environ.get(FAULT_PLAN_ENV):
            from .faults import maybe_fault
            maybe_fault(site)
        return _OK, fn(*args)
    except Exception as exc:
        return _ERR, _failure_payload(exc)


class ExperimentEngine:
    """Runs independent experiment points: parallel, memoised, and
    fault-tolerant (see the module docstring for the failure model).

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs every attempt inline (no pool, no
        pickling), ``0`` means one per CPU. This only decides where an
        attempt runs: one scheduling loop settles every attempt.
    cache:
        Optional :class:`ResultCache`. Points that provide a cache key
        are looked up before execution and committed incrementally the
        moment they complete (failures are never cached).
    profiler:
        Optional profiler recording host-side spans and counters for
        the engine run itself.
    retries:
        Re-run a failed point up to this many extra times before
        recording the failure (default 0).
    point_timeout:
        Watchdog seconds per point; ``None`` disables (default).
    keep_going:
        ``True`` turns exhausted failures into
        :class:`~repro.errors.PointFailure` result values; ``False``
        (default) raises :class:`~repro.errors.ExperimentAborted` on
        the first exhausted failure.
    retry_backoff:
        Base of the exponential backoff slept before retry attempt
        ``k`` (``retry_backoff * 2**(k-2)`` seconds, jittered to
        ``[0.5x, 1.5x)`` so parallel retries decorrelate, capped at
        2s).
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 profiler: Profiler | None = None,
                 retries: int = 0,
                 point_timeout: float | None = None,
                 keep_going: bool = False,
                 retry_backoff: float = 0.05):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive")
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.profiler = ensure_profiler(profiler)
        self.retries = retries
        self.point_timeout = point_timeout
        self.keep_going = keep_going
        self.retry_backoff = retry_backoff
        #: backoff jitter source; sleeps never influence results, so an
        #: unseeded RNG does not threaten reproducibility.
        self._backoff_rng = random.Random()
        #: while True a SimulationPreempted point is requeued to resume
        #: from its snapshot; a draining daemon flips this off so
        #: preemptions finalise instead of looping.
        self._preempt_requeue = True
        self.stats = EngineStats(
            jobs=self.jobs,
            cache_dir=str(cache.root) if cache is not None else "",
        )
        self._pool: ProcessPoolExecutor | None = None
        _LIVE_ENGINES.add(self)

    # -- worker-pool lifecycle --------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        """The engine's worker pool, created lazily and kept across
        :meth:`run` calls — spawned workers pay their interpreter/numpy
        import once per engine, not once per sweep."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=get_context("spawn"))
            if self.point_timeout is not None:
                # The watchdog deadline is armed at submit time, so boot
                # every worker first: spawning an interpreter can cost a
                # sizeable fraction of a tight timeout, and that boot
                # latency must not be charged to the first points.
                try:
                    wait([self._pool.submit(_noop)
                          for _ in range(self.jobs)])
                except BrokenProcessPool:
                    pass
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        ``cancel_futures`` drops queued points immediately, so closing
        does not block on a full submission queue draining through the
        pool first.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _respawn_pool(self) -> None:
        """Tear down a broken or stuck pool; terminate its workers so a
        runaway point cannot outlive its cancellation. The next submit
        spawns a fresh pool."""
        if self._pool is None:
            return
        procs = dict(getattr(self._pool, "_processes", None) or {})
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        for proc in procs.values():
            try:
                proc.terminate()
            except (OSError, ValueError, AttributeError):
                pass

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        points: Sequence[tuple],
        *,
        keys: Sequence[str | None] | None = None,
        label: str = "experiment",
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Evaluate ``fn(*point)`` for every point, in input order.

        ``keys`` (parallel to ``points``) are cache keys from
        :meth:`ResultCache.key`; a ``None`` key skips the cache for
        that point. A keyed point's value is cached as returned, so it
        must be a plain JSON value.

        ``on_result(index, value)`` streams results back as they
        finalise — called exactly once per point (cache hits
        immediately, executed points the moment they complete and are
        committed, exhausted failures with their
        :class:`~repro.errors.PointFailure`), in *completion* order,
        from the calling thread. The experiment-service daemon uses it
        to mark jobs done incrementally instead of at batch barriers.

        Under ``keep_going`` a returned element may be a
        :class:`~repro.errors.PointFailure`; otherwise the first
        exhausted failure raises
        :class:`~repro.errors.ExperimentAborted` (points that completed
        before the abort are already committed to the cache).
        """
        if keys is not None and len(keys) != len(points):
            raise ValueError("keys must parallel points")
        stats = self.stats
        before = [getattr(stats, name) for name in _MIRRORED]

        def commit(point: _Point) -> None:
            """Incremental cache commit: store a completed point the
            moment it finishes, so an interrupted run resumes from the
            last completed point. Failures are never cached (but still
            stream to ``on_result``)."""
            if (self.cache is not None and point.key is not None
                    and not point.failed):
                self.cache.put(point.key, point.value)
                stats.cache_stores += 1
            if on_result is not None:
                on_result(point.index, point.value)

        work: list[_Point] = []
        try:
            with self.profiler.span(f"engine: {label}",
                                    cat="engine") as span:
                work = [
                    _Point(index=i, args=tuple(p),
                           key=None if keys is None else keys[i],
                           site=f"{label}#{i}")
                    for i, p in enumerate(points)
                ]
                stats.points += len(work)
                pending: list[_Point] = []
                for point in work:
                    value = MISS
                    if self.cache is not None and point.key is not None:
                        value = self.cache.get(point.key)
                    if value is MISS:
                        pending.append(point)
                    else:
                        point.value = value
                        if on_result is not None:
                            on_result(point.index, value)
                stats.cache_hits += len(work) - len(pending)
                span.name = f"engine: {label} ({len(pending)} of {len(work)})"
                self._execute(fn, pending, commit, label)
        finally:
            stats.executed += sum(1 for p in work if p.attempts > 0)
            stats.wall_s += span.seconds
            prof = self.profiler
            if prof.enabled:
                for name, old in zip(_MIRRORED, before):
                    prof.count(f"engine.{label}.{name}",
                               getattr(stats, name) - old)
        return [point.value for point in work]

    # -- failure plumbing --------------------------------------------------

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self.retry_backoff * (2 ** (attempt - 2))
        delay *= 0.5 + self._backoff_rng.random()  # jitter: [0.5x, 1.5x)
        if delay > 0:
            time.sleep(min(delay, 2.0))

    def stop_preempting(self) -> None:
        """Stop requeueing preempted points: from now on a
        ``SimulationPreempted`` finalises as a failure. The daemon's
        hard-stop path uses this so the stop file cannot turn shutdown
        into an endless preempt/resume loop inside one batch."""
        self._preempt_requeue = False

    def _note_preempt(self, point: _Point, payload: dict) -> bool:
        """True if ``payload`` is a forward-progress preemption and the
        point should be resubmitted uncharged (attempt refunded)."""
        if payload.get("exc_type") != "SimulationPreempted":
            return False
        cycle = payload.get("cycle")
        if not (self._preempt_requeue and isinstance(cycle, int)
                and cycle > point.last_preempt_cycle):
            # no snapshot progress since the last preemption (or the
            # engine is shutting down): finalise instead of looping.
            return False
        point.last_preempt_cycle = cycle
        point.attempts -= 1  # cooperative yield, not a failure
        self.stats.preempted += 1
        return True

    def _finalize_failure(self, point: _Point, payload: dict,
                          label: str) -> None:
        payload = dict(payload)
        payload.pop("cycle", None)  # not a PointFailure field
        point.failed = True
        point.value = PointFailure(attempts=point.attempts, **payload)
        self.stats.failed += 1
        if not self.keep_going:
            raise ExperimentAborted(label, point.value)

    # -- the scheduling loop -----------------------------------------------

    def _execute(self, fn: Callable[..., Any], pending: list[_Point],
                 commit: Callable[[_Point], None], label: str) -> None:
        """Run ``pending`` to completion: ``submit`` decides where each
        attempt runs and ``settle`` what its outcome does."""
        timeout = self.point_timeout
        # A lone point normally runs inline (no pool spin-up), but a
        # watchdog timeout needs a worker it can actually cancel.
        inline = self.jobs <= 1 or (len(pending) <= 1 and timeout is None)
        waiting: deque[_Point] = deque(pending)
        #: crash suspects, re-run one at a time to isolate the culprit.
        solo: deque[_Point] = deque()
        inflight: dict = {}
        deadlines: dict = {}

        def settle(point: _Point, status: str, value: Any,
                   queue: deque = waiting) -> None:
            """Every attempt's outcome: commit a success; requeue a
            forward-progress preemption uncharged, or a failure with
            attempts left after its backoff, at the head of ``queue``;
            else finalise the failure (which raises under fail-fast)."""
            if status == _ERR:
                if self._note_preempt(point, value):
                    queue.appendleft(point)
                    return
                if point.attempts <= self.retries:
                    self.stats.retried += 1
                    self._sleep_backoff(point.attempts + 1)
                    queue.appendleft(point)
                    return
                self._finalize_failure(point, value, label)
            else:
                point.value = value
            commit(point)

        def submit(point: _Point) -> bool:
            """Start one attempt: inline it is settled before this
            returns, so nothing goes in flight; on the pool it is
            settled when its future completes."""
            point.attempts += 1
            if inline:
                started = time.monotonic()
                status, value = _call_point(fn, point.args, point.site)
                if (status == _OK and timeout is not None
                        and time.monotonic() - started > timeout):
                    # post hoc (no preemption without a pool), but the
                    # payload a watchdog cancellation would record.
                    status, value = _ERR, _timeout_payload(timeout)
                settle(point, status, value)
                return True
            try:
                fut = self._get_pool().submit(_call_point, fn, point.args,
                                              point.site)
            except BrokenProcessPool:
                point.attempts -= 1  # resubmission re-charges it
                self._respawn_pool()
                return False
            inflight[fut] = point
            if timeout is not None:
                deadlines[fut] = time.monotonic() + timeout
            return True

        try:
            while waiting or solo or inflight:
                if solo:
                    # quarantine: exactly one suspect in flight, so a
                    # repeat crash names the culprit instead of taking
                    # innocent points down with it.
                    if not inflight:
                        point = solo.popleft()
                        if not submit(point):
                            solo.appendleft(point)
                else:
                    while waiting and len(inflight) < self.jobs:
                        point = waiting.popleft()
                        if not submit(point):
                            waiting.appendleft(point)
                            break
                if not inflight:
                    continue
                wait_s = None
                if deadlines:
                    wait_s = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    ) + 0.02
                done, _ = wait(set(inflight), timeout=wait_s,
                               return_when=FIRST_COMPLETED)
                crashed: list[_Point] = []
                for fut in done:
                    point = inflight.pop(fut)
                    deadlines.pop(fut, None)
                    try:
                        status, value = fut.result()
                    except BrokenProcessPool:
                        crashed.append(point)
                        continue
                    except Exception as exc:  # submission/pickling faults
                        status, value = _ERR, _failure_payload(exc)
                    settle(point, status, value)
                if crashed:
                    # the pool died; every in-flight future was lost.
                    crashed.extend(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    self._respawn_pool()
                    if len(crashed) == 1:
                        # ran solo: this point killed the worker.
                        settle(crashed[0], _ERR, _crash_payload(), solo)
                    else:
                        # ambiguous: re-run each suspect solo, uncharged.
                        for point in crashed:
                            point.attempts -= 1
                            solo.append(point)
                    continue
                now = time.monotonic()
                expired = [f for f, dl in deadlines.items() if dl <= now]
                if expired:
                    for fut in expired:
                        del deadlines[fut]
                        settle(inflight.pop(fut), _ERR,
                               _timeout_payload(timeout))
                    # watchdog cancellation: a stuck worker cannot be
                    # interrupted in-band — tear the pool down
                    # (terminating its processes) and reschedule the
                    # innocent in-flight points uncharged.
                    for point in inflight.values():
                        point.attempts -= 1
                        waiting.append(point)
                    inflight.clear()
                    deadlines.clear()
                    self._respawn_pool()
        except ExperimentAborted:
            # terminate, do not wait for, the workers: one may be the
            # hung point the watchdog just timed out, and the aborted
            # run settles none of its in-flight points.
            self._respawn_pool()
            raise


def default_engine(engine: ExperimentEngine | None,
                   cache: ResultCache | None) -> ExperimentEngine:
    """The engine a runner runs on: the caller's ``engine``, or else a
    serial, fail-fast one over ``cache`` (it never starts a pool, so
    there is nothing to close). ``cache=`` is shorthand for that engine,
    so passing both raises :class:`TypeError`."""
    if engine is None:
        return ExperimentEngine(cache=cache)
    if cache is not None:
        raise TypeError("pass either engine= or cache=, not both "
                        "(the engine carries its own cache)")
    return engine
