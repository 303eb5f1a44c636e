"""Tests for the parallel experiment engine and the on-disk result cache.

The contract under test: parallel execution is bit-identical to serial
execution, cached re-runs execute zero simulator points, a changed
code fingerprint invalidates every cached entry, and the failure model
holds — exceptions are captured as :class:`PointFailure` payloads
identical in serial and parallel runs, a killed worker takes down only
its own point, and a hung point is cancelled by the watchdog.
"""

import json
import os
import time

import pytest

from repro.calibrate import collect_vortex_samples, run_calibration
from repro.errors import ExperimentAborted, PointFailure
from repro.harness import run_coverage, run_dse, run_profile_cached
from repro.harness.engine import EngineStats, ExperimentEngine, resolve_jobs
from repro.harness.result_cache import MISS, ResultCache, code_fingerprint
from repro.harness.sweep import run_sweep
from repro.profiling import Profiler


def _add(a, b):
    """Module-level (hence spawn-picklable) point function."""
    return a + b


def _fail_on_two(x):
    """Deterministic failing point: only x == 2 is cursed."""
    if x == 2:
        raise ValueError("two is cursed")
    return x * 10


def _try_claim_marker(path):
    """Atomically create ``path``; True exactly once across processes."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _fail_until_marker(path, x):
    """Transient fault: the first call (ever, any process) fails."""
    if _try_claim_marker(path):
        raise RuntimeError("transient fault")
    return x * 10


def _kill_until_marker(path, x):
    """One worker (whichever claims the marker first) dies mid-point."""
    if _try_claim_marker(path):
        os._exit(13)
    return x * 10


def _kill_on_two(x):
    """Persistent killer: every attempt at x == 2 dies, others are fine."""
    if x == 2:
        os._exit(13)
    return x * 10


def _sleep_for(secs, x):
    time.sleep(secs)
    return x


def _sleep_once_then_return(path, secs, x):
    """Hang only on the first call; retries return immediately."""
    if _try_claim_marker(path):
        time.sleep(secs)
    return x * 10


# -- result cache ------------------------------------------------------------

class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(benchmark="vecadd", n=512)
        assert cache.get(key) is MISS
        cache.put(key, {"cycles": 123})
        assert cache.get(key) == {"cycles": 123}
        assert cache.hits == 1 and cache.misses == 1

    def test_key_is_stable_and_order_insensitive(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        assert cache.key(a=1, b=(2, 3)) == cache.key(b=(2, 3), a=1)
        assert cache.key(a=1) != cache.key(a=2)

    def test_dataclass_parts_hash_by_value(self, tmp_path):
        from repro.vortex import VortexConfig

        cache = ResultCache(tmp_path, fingerprint="f")
        k1 = cache.key(config=VortexConfig(cores=2))
        k2 = cache.key(config=VortexConfig(cores=2))
        k3 = cache.key(config=VortexConfig(cores=4))
        assert k1 == k2 != k3

    def test_fingerprint_changes_every_key(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="rev-a")
        new = ResultCache(tmp_path, fingerprint="rev-b")
        key = old.key(benchmark="vecadd")
        old.put(key, 1)
        assert new.get(new.key(benchmark="vecadd")) is MISS

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(x=1)
        cache.put(key, 42)
        cache._path(key).write_text("{not json")
        assert cache.get(key) is MISS

    def test_code_fingerprint_is_deterministic(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key(x=1), 1)
        cache.put(cache.key(x=2), 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


# -- engine ------------------------------------------------------------------

class TestEngine:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_serial_preserves_order_and_allows_closures(self):
        engine = ExperimentEngine(jobs=1)
        seen = []

        def fn(x):
            seen.append(x)
            return x * 10

        assert engine.run(fn, [(3,), (1,), (2,)]) == [30, 10, 20]
        assert seen == [3, 1, 2]
        assert engine.stats.executed == 3

    def test_parallel_matches_serial(self):
        points = [(i, i + 1) for i in range(6)]
        serial = ExperimentEngine(jobs=1).run(_add, points)
        parallel = ExperimentEngine(jobs=2).run(_add, points)
        assert serial == parallel == [a + b for a, b in points]

    def test_pool_reused_across_runs_and_closed(self):
        with ExperimentEngine(jobs=2) as engine:
            assert engine.run(_add, [(1, 2), (3, 4)]) == [3, 7]
            pool = engine._pool
            assert pool is not None
            assert engine.run(_add, [(5, 6), (7, 8)]) == [11, 15]
            assert engine._pool is pool
        assert engine._pool is None
        engine.close()  # idempotent

    def test_cache_short_circuits_execution(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        keys = [cache.key(point=p) for p in range(3)]
        points = [(p, p) for p in range(3)]

        first = ExperimentEngine(jobs=1, cache=cache)
        assert first.run(_add, points, keys=keys) == [0, 2, 4]
        assert first.stats.executed == 3 and first.stats.cache_hits == 0

        def exploding(a, b):
            raise AssertionError("must not execute on a warm cache")

        second = ExperimentEngine(jobs=1, cache=cache)
        assert second.run(exploding, points, keys=keys) == [0, 2, 4]
        assert second.stats.executed == 0 and second.stats.cache_hits == 3

    def test_none_key_skips_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        engine = ExperimentEngine(jobs=1, cache=cache)
        engine.run(_add, [(1, 1)], keys=[None])
        assert engine.stats.cache_stores == 0 and len(cache) == 0

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=1).run(_add, [(1, 1)], keys=[])

    def test_profiler_mirrors_the_stats_record(self, tmp_path):
        """The run's one record: its ``engine:`` span is ``wall_s`` and
        the profiler's counters are the run's stat deltas."""
        cache = ResultCache(tmp_path, fingerprint="f")
        keys = [cache.key(point=p) for p in range(3)]
        cache.put(keys[0], 0)
        prof = Profiler()
        engine = ExperimentEngine(cache=cache, profiler=prof,
                                  keep_going=True)
        engine.run(_fail_on_two, [(0,), (1,), (2,)], keys=keys, label="t")
        assert dict(prof.counters) == {
            "engine.t.points": 3, "engine.t.cache_hits": 1,
            "engine.t.executed": 2, "engine.t.failed": 1}
        (span,) = prof.events
        assert span.name == "engine: t (2 of 3)"
        assert engine.stats.wall_s == span.dur / 1e6 > 0.0

    def test_stats_merge_and_summary(self):
        a = EngineStats(jobs=4, points=5, executed=2, cache_hits=3,
                        wall_s=1.0, cache_dir="/c")
        assert "5 points" in a.summary() and "3 cache hits" in a.summary()


# -- engine failure paths ----------------------------------------------------

def _payloads(results):
    """Normalise a result list for serial-vs-parallel comparison."""
    return [r.to_payload() if isinstance(r, PointFailure) else r
            for r in results]


class TestEngineFailures:
    def test_fail_fast_raises_experiment_aborted(self):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(ExperimentAborted) as excinfo:
            engine.run(_fail_on_two, [(1,), (2,), (3,)])
        failure = excinfo.value.failure
        assert failure.exc_type == "ValueError"
        assert failure.message == "two is cursed"
        assert "ValueError: two is cursed" in failure.traceback
        assert failure.attempts == 1
        assert "two is cursed" in str(excinfo.value)

    def test_keep_going_captures_failure_in_results(self):
        engine = ExperimentEngine(jobs=1, keep_going=True)
        results = engine.run(_fail_on_two, [(1,), (2,), (3,)])
        assert results[0] == 10 and results[2] == 30
        assert isinstance(results[1], PointFailure)
        assert results[1].brief().startswith("ERROR(ValueError")
        assert engine.stats.failed == 1
        assert "failed=1" in engine.stats.summary()
        assert "retried=0" in engine.stats.summary()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(retries=-1)
        with pytest.raises(ValueError):
            ExperimentEngine(point_timeout=0)

    def test_abort_keeps_completed_points_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        keys = [cache.key(p=p) for p in (1, 2, 3)]
        first = ExperimentEngine(jobs=1, cache=cache)
        with pytest.raises(ExperimentAborted):
            first.run(_fail_on_two, [(1,), (2,), (3,)], keys=keys)
        # point 1 completed before the abort and was committed
        # incrementally; the failed point 2 was not cached.
        assert first.stats.cache_stores == 1
        resumed = ExperimentEngine(jobs=1, cache=cache, keep_going=True)
        results = resumed.run(_fail_on_two, [(1,), (2,), (3,)], keys=keys)
        assert results[0] == 10 and results[2] == 30
        assert resumed.stats.cache_hits == 1
        assert resumed.stats.executed == 2

    def test_retry_recovers_transient_fault(self, tmp_path):
        marker = str(tmp_path / "marker")
        engine = ExperimentEngine(jobs=1, retries=1, retry_backoff=0.0)
        assert engine.run(_fail_until_marker, [(marker, 7)]) == [70]
        assert engine.stats.failed == 0
        assert engine.stats.retried == 1
        assert "retried=1" in engine.stats.summary()

    def test_exhausted_retries_report_attempt_count(self):
        engine = ExperimentEngine(jobs=1, retries=2, retry_backoff=0.0,
                                  keep_going=True)
        results = engine.run(_fail_on_two, [(2,)])
        assert results[0].attempts == 3
        assert engine.stats.retried == 2 and engine.stats.failed == 1

    def test_serial_and_parallel_failures_identical(self):
        points = [(i,) for i in (1, 2, 3, 4)]
        serial = ExperimentEngine(jobs=1, keep_going=True)
        with ExperimentEngine(jobs=4, keep_going=True) as parallel:
            assert _payloads(serial.run(_fail_on_two, points)) == \
                _payloads(parallel.run(_fail_on_two, points))
        assert serial.stats.failed == parallel.stats.failed == 1

    def test_broken_pool_recovery_spares_innocents(self, tmp_path):
        marker = str(tmp_path / "marker")
        with ExperimentEngine(jobs=2, retries=1,
                              retry_backoff=0.0) as engine:
            points = [(marker, i) for i in range(4)]
            assert engine.run(_kill_until_marker, points) == \
                [0, 10, 20, 30]
            assert engine.stats.failed == 0
            # the pool was respawned and the engine is still usable
            assert engine.run(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_persistent_killer_charged_alone(self):
        with ExperimentEngine(jobs=2, keep_going=True,
                              retry_backoff=0.0) as engine:
            results = engine.run(_kill_on_two, [(1,), (2,), (3,), (4,)])
        assert results[0] == 10 and results[2] == 30 and results[3] == 40
        assert isinstance(results[1], PointFailure)
        assert results[1].exc_type == "WorkerCrashed"
        assert engine.stats.failed == 1

    def test_timeout_cancels_stuck_point(self):
        started = time.monotonic()
        with ExperimentEngine(jobs=2, point_timeout=2.0,
                              keep_going=True) as engine:
            results = engine.run(_sleep_for,
                                 [(0.0, 1), (20.0, 2), (0.0, 3)])
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], PointFailure)
        assert results[1].exc_type == "PointTimeout"
        assert "2s point-timeout" in results[1].message
        # the watchdog cancelled the 60s sleeper instead of waiting it out
        assert time.monotonic() - started < 30

    def test_fail_fast_timeout_terminates_the_hung_worker(self):
        """A fail-fast abort on a watchdog timeout tears the pool down
        instead of waiting out the hung worker, and the engine runs
        again afterwards on a fresh pool."""
        with ExperimentEngine(jobs=2, point_timeout=1.0) as engine:
            started = time.monotonic()
            with pytest.raises(ExperimentAborted) as exc_info:
                engine.run(_sleep_for, [(8.0, 1), (0.0, 2)])
            assert time.monotonic() - started < 4.0
            assert exc_info.value.failure.exc_type == "PointTimeout"
            assert engine.run(_sleep_for, [(0.0, 3), (0.0, 4)]) == [3, 4]

    def test_timeout_then_retry_succeeds(self, tmp_path):
        marker = str(tmp_path / "marker")
        # pre-claim the fast point's marker so only the slow point can
        # win the claim race — the first attempt at point 1 then
        # deterministically hangs and trips the watchdog.
        fast_marker = str(tmp_path / "marker-fast")
        _try_claim_marker(fast_marker)
        with ExperimentEngine(jobs=2, point_timeout=2.0, retries=1,
                              retry_backoff=0.0) as engine:
            results = engine.run(_sleep_once_then_return,
                                 [(marker, 20.0, 1), (fast_marker, 0.0, 2)])
        assert sorted(results) == [10, 20]
        assert engine.stats.failed == 0
        assert engine.stats.retried >= 1

    def test_serial_timeout_is_post_hoc_with_same_payload(self):
        engine = ExperimentEngine(jobs=1, point_timeout=0.05,
                                  keep_going=True)
        results = engine.run(_sleep_for, [(0.2, 1)])
        assert isinstance(results[0], PointFailure)
        assert results[0].exc_type == "PointTimeout"
        assert results[0].message == "point exceeded 0.05s point-timeout"

    def test_close_cancels_queued_futures(self):
        engine = ExperimentEngine(jobs=2)
        pool = engine._get_pool()
        futures = [pool.submit(time.sleep, 1.0) for _ in range(8)]
        started = time.monotonic()
        engine.close()
        # without cancel_futures the queue would drain through the two
        # workers (~4s of sleeps); cancellation only waits out the two
        # already running.
        assert time.monotonic() - started < 3.0
        assert any(f.cancelled() for f in futures)


class TestPointFailurePayload:
    def test_roundtrip(self):
        failure = PointFailure(exc_type="ValueError", message="boom",
                               traceback="tb", attempts=2)
        assert PointFailure.from_payload(failure.to_payload()) == failure

    def test_brief(self):
        failure = PointFailure(exc_type="KeyError", message="'w'")
        assert failure.brief() == "ERROR(KeyError: 'w')"


# -- sweep through the engine ------------------------------------------------

GRID = dict(cores=2, n=512, warp_sizes=(2, 4), thread_sizes=(2, 4))


class TestSweepEngine:
    def test_parallel_sweep_bit_identical_to_serial(self):
        serial = run_sweep("vecadd", engine=ExperimentEngine(), **GRID)
        with ExperimentEngine(jobs=4) as engine:
            parallel = run_sweep("vecadd", engine=engine, **GRID)
        assert serial.cycles == parallel.cycles
        assert serial.lsu_stalls == parallel.lsu_stalls
        assert serial.render() == parallel.render()

    def test_second_run_is_all_cache_hits(self, tmp_path):
        cold_engine = ExperimentEngine(cache=ResultCache(tmp_path))
        cold = run_sweep("vecadd", engine=cold_engine, **GRID)
        assert cold_engine.stats.executed == 4
        warm_engine = ExperimentEngine(cache=ResultCache(tmp_path))
        warm = run_sweep("vecadd", engine=warm_engine, **GRID)
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cache_hits == 4
        assert warm.cycles == cold.cycles

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        run_sweep("vecadd", cache=ResultCache(tmp_path), **GRID)
        engine = ExperimentEngine(
            cache=ResultCache(tmp_path, fingerprint="edited"))
        run_sweep("vecadd", engine=engine, **GRID)
        assert engine.stats.cache_hits == 0
        assert engine.stats.executed == 4

    def test_profiled_sweep_bypasses_cache_and_matches_serial(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="f")
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_sweep("vecadd", profile_dir=serial_dir,
                  engine=ExperimentEngine(cache=cache), **GRID)
        assert len(cache) == 0, "profiled points must not be memoised"
        with ExperimentEngine(jobs=2, cache=cache) as engine:
            run_sweep("vecadd", profile_dir=parallel_dir, engine=engine,
                      **GRID)
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        assert serial_files == sorted(
            p.name for p in parallel_dir.iterdir())
        assert len(serial_files) == 8  # 4 cells x (trace + summary)
        for name in serial_files:
            assert ((serial_dir / name).read_bytes()
                    == (parallel_dir / name).read_bytes()), name


# -- every runner runs on the caller's engine --------------------------------

_CELL = dict(n=64, cores=1, cells=((2, 2),))

#: one small call per harness runner; runners with a grid get one cell.
RUNNERS = {
    "run_sweep": lambda **kw: run_sweep(
        "vecadd", cores=1, n=64, warp_sizes=(2,), thread_sizes=(2,), **kw),
    "run_coverage": lambda **kw: run_coverage(**kw),
    "run_dse": lambda **kw: run_dse(
        "vecadd", n=64, core_counts=(1,), warp_sizes=(2,),
        thread_sizes=(2,), **kw),
    "collect_vortex_samples": lambda **kw: collect_vortex_samples(
        benchmarks=("vecadd",), **_CELL, **kw),
    "run_calibration": lambda **kw: run_calibration(
        benchmarks=("vecadd",), **_CELL, **kw),
    "run_profile_cached": lambda **kw: run_profile_cached(
        "vecadd", backend="interp", **kw),
}


class TestRunnersTakeAnEngine:
    """The engine is the only execution argument a runner takes: the
    caller's engine runs the runner's points, and ``cache=`` is only
    shorthand for an engine, so passing both is an error."""

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_callers_engine_runs_the_points(self, runner):
        engine = ExperimentEngine()
        RUNNERS[runner](engine=engine)
        assert engine.stats.points > 0

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_engine_and_cache_together_is_a_type_error(self, runner,
                                                        tmp_path):
        with pytest.raises(TypeError):
            RUNNERS[runner](engine=ExperimentEngine(),
                            cache=ResultCache(tmp_path))


# -- cached profile harness --------------------------------------------------

class TestProfileCache:
    def test_cached_profile_replays_identically(self, tmp_path):
        rep1, sum1, hit1 = run_profile_cached(
            "vecadd", backend="simx", cache=ResultCache(tmp_path))
        rep2, sum2, hit2 = run_profile_cached(
            "vecadd", backend="simx", cache=ResultCache(tmp_path))
        assert (hit1, hit2) == (False, True)
        assert sum1 == sum2
        assert rep1.render() == rep2.render()
        assert json.dumps(rep1.chrome_trace()) == json.dumps(
            rep2.chrome_trace())


# -- CLI ---------------------------------------------------------------------

class TestCLI:
    def test_fig7_jobs_and_cache_flags(self, capsys, tmp_path):
        from repro.__main__ import main

        argv = ["fig7", "--warp-sizes", "2,4", "--thread-sizes", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "4 points, 4 executed, 0 cache hits" in cold
        # quoted paper cells are outside this grid: render "-", not crash
        assert "- / 1.27" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "4 points, 0 executed, 4 cache hits" in warm
        # identical artifact body (everything above the engine summary)
        strip = (lambda out: out[:out.rindex("engine:")])
        assert strip(cold) == strip(warm)

    def test_fig7_no_cache_flag(self, capsys, tmp_path):
        from repro.__main__ import main

        argv = ["fig7", "--warp-sizes", "2", "--thread-sizes", "2",
                "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        assert "2 points, 2 executed, 0 cache hits" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 0

    def test_fig7_bad_size_list_rejected(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig7", "--warp-sizes", "two"])

    def test_profile_cache_hit_is_reported(self, capsys, tmp_path):
        from repro.__main__ import main

        argv = ["profile", "vecadd", "--backend", "simx",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace-out", str(tmp_path / "p.trace.json")]
        assert main(argv) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "result cache hit: no simulation ran" in (
            capsys.readouterr().out)
