"""Fault-injection tests: every recovery path of the experiment engine,
driven by deterministic fault plans (``REPRO_FAULT_PLAN``).

Each test arms a plan plus a fresh ``REPRO_FAULT_STATE`` directory (the
cross-process firing budget), runs a real engine campaign, and checks
the promised recovery: a retried transient fault succeeds, a killed
worker respawns the pool, a hung point trips the watchdog, an
interrupted run resumes from the incremental cache, and a corrupted
cache entry heals.
"""

import os

import pytest

from repro.harness import (
    FAULT_PLAN_ENV,
    FAULT_STATE_ENV,
    ExperimentAborted,
    ExperimentEngine,
    FaultInjected,
    FaultSpec,
    PointFailure,
    ResultCache,
    corrupt_cache_entry,
    maybe_fault,
    parse_plan,
    run_sweep,
)
from repro.harness import faults


def _triple(x):
    """Module-level (spawn-picklable) point function."""
    return x * 3


@pytest.fixture
def arm(monkeypatch, tmp_path):
    """Arm a fault plan with a fresh cross-process state directory.

    Returns the armer; calling it again re-arms with separate state
    (for serial-vs-parallel comparisons of the same plan).
    """
    counter = iter(range(100))

    def _arm(plan):
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        state = tmp_path / f"fault-state-{next(counter)}"
        monkeypatch.setenv(FAULT_STATE_ENV, str(state))
        return state

    return _arm


# -- plan parsing and firing budgets ----------------------------------------

class TestPlan:
    def test_parse_plan(self):
        specs = parse_plan(
            "raise:experiment#1;kill:fig7 vecadd#2:3;sleep:slow#0:1:0.5")
        assert specs == [
            FaultSpec(kind="raise", match="experiment#1"),
            FaultSpec(kind="kill", match="fig7 vecadd#2", times=3),
            FaultSpec(kind="sleep", match="slow#0", times=1, arg="0.5"),
        ]

    def test_parse_plan_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_plan("explode:everywhere")
        with pytest.raises(ValueError):
            parse_plan("raise")

    def test_empty_chunks_ignored(self):
        assert parse_plan(";;raise:x;") == [FaultSpec("raise", "x")]

    def test_local_firing_budget(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise:point#:2")
        monkeypatch.delenv(FAULT_STATE_ENV, raising=False)
        faults._local_counts.clear()
        fired = 0
        for _ in range(4):
            try:
                maybe_fault("point#0")
            except FaultInjected:
                fired += 1
        assert fired == 2
        faults._local_counts.clear()

    def test_state_dir_budget_is_shared(self, tmp_path):
        state = str(tmp_path / "state")
        claims = [faults._claim_firing(state, 0, times=2)
                  for _ in range(3)]
        assert claims == [True, True, False]

    def test_no_plan_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        maybe_fault("experiment#0")  # must not raise


# -- engine recovery paths ---------------------------------------------------

POINTS = [(i,) for i in range(6)]
VALUES = [i * 3 for i in range(6)]


class TestEngineRecovery:
    def test_retry_recovers_injected_raise(self, arm):
        arm("raise:experiment#1:1")
        engine = ExperimentEngine(jobs=1, retries=1, retry_backoff=0.0)
        assert engine.run(_triple, POINTS) == VALUES
        assert engine.stats.failed == 0
        assert "retried=1" in engine.stats.summary()

    def test_keep_going_records_error_cell(self, arm):
        arm("raise:experiment#1:99")
        engine = ExperimentEngine(jobs=1, keep_going=True)
        results = engine.run(_triple, POINTS)
        assert results[:1] + results[2:] == VALUES[:1] + VALUES[2:]
        assert isinstance(results[1], PointFailure)
        assert results[1].exc_type == "FaultInjected"
        assert "injected fault at experiment#1" in results[1].message
        assert engine.stats.failed == 1

    def test_serial_and_parallel_runs_identical(self, arm, tmp_path):
        """One transient and one permanent fault, one warm cache entry:
        inline (jobs=1) and pooled (jobs=4) runs agree on every value,
        failure payload and stats counter."""
        runs = {}
        for jobs in (1, 4):
            # fresh firing budget, same plan
            arm("raise:experiment#1:1;raise:experiment#4:99")
            cache = ResultCache(tmp_path / f"cache-{jobs}",
                                fingerprint="f")
            keys = [cache.key(point=p) for p in POINTS]
            cache.put(keys[0], VALUES[0])
            order = []
            with ExperimentEngine(jobs=jobs, cache=cache, keep_going=True,
                                  retries=1, retry_backoff=0.0) as engine:
                results = engine.run(
                    _triple, POINTS, keys=keys,
                    on_result=lambda index, _: order.append(index))
            runs[jobs] = (results, engine.stats, order)
        norm = lambda rs: [r.to_payload() if isinstance(r, PointFailure)
                           else r for r in rs]
        counters = ("points", "executed", "cache_hits", "cache_stores",
                    "failed", "retried", "preempted")
        serial, serial_stats, serial_order = runs[1]
        parallel, parallel_stats, _ = runs[4]
        assert norm(serial) == norm(parallel)
        assert serial[:4] + serial[5:] == VALUES[:4] + VALUES[5:]
        assert serial[4].exc_type == "FaultInjected"
        assert serial[4].attempts == 2
        assert ([getattr(serial_stats, c) for c in counters]
                == [getattr(parallel_stats, c) for c in counters]
                == [6, 5, 1, 4, 1, 2, 0])
        # inline, a retried point settles before the next point starts
        assert serial_order == [0, 1, 2, 3, 4, 5]

    def test_killed_worker_recovered_by_retry(self, arm):
        arm("kill:experiment#2:1")
        with ExperimentEngine(jobs=4, retries=1,
                              retry_backoff=0.0) as engine:
            assert engine.run(_triple, POINTS) == VALUES
        assert engine.stats.failed == 0

    def test_persistent_kill_yields_exactly_one_error(self, arm):
        arm("kill:experiment#2:99")
        with ExperimentEngine(jobs=4, keep_going=True,
                              retry_backoff=0.0) as engine:
            results = engine.run(_triple, POINTS)
        failures = [r for r in results if isinstance(r, PointFailure)]
        assert len(failures) == 1 and failures[0] is results[2]
        assert failures[0].exc_type == "WorkerCrashed"
        assert results[:2] + results[3:] == VALUES[:2] + VALUES[3:]
        assert engine.stats.failed == 1

    def test_inline_kill_raises_instead_of_exiting(self, arm):
        arm("kill:experiment#0:1")
        engine = ExperimentEngine(jobs=1, keep_going=True)
        results = engine.run(_triple, POINTS[:2])
        assert isinstance(results[0], PointFailure)
        assert results[0].exc_type == "FaultInjected"
        assert "inline mode" in results[0].message
        assert results[1] == 3

    def test_sleep_fault_trips_watchdog_then_retry_succeeds(self, arm):
        arm("sleep:experiment#1:1:20.0")
        with ExperimentEngine(jobs=2, point_timeout=2.0, retries=1,
                              retry_backoff=0.0) as engine:
            assert engine.run(_triple, POINTS[:3]) == VALUES[:3]
        assert engine.stats.failed == 0
        assert engine.stats.retried >= 1


# -- resume and cache healing ------------------------------------------------

class TestResume:
    def test_interrupted_run_resumes_from_cache(self, arm, tmp_path,
                                                monkeypatch):
        arm("raise:experiment#3:99")
        cache = ResultCache(tmp_path / "cache", fingerprint="f")
        keys = [cache.key(p=p) for p, in POINTS]
        first = ExperimentEngine(jobs=1, cache=cache)
        with pytest.raises(ExperimentAborted):
            first.run(_triple, POINTS, keys=keys)
        # points 0-2 completed before the abort and were committed
        # incrementally; 3 failed and 4-5 never ran.
        assert first.stats.cache_stores == 3

        monkeypatch.delenv(FAULT_PLAN_ENV)
        second = ExperimentEngine(jobs=1, cache=cache)
        assert second.run(_triple, POINTS, keys=keys) == VALUES
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 3  # only the unfinished points

    def test_corrupt_cache_entry_heals(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        keys = [cache.key(p=p) for p, in POINTS[:3]]
        ExperimentEngine(jobs=1, cache=cache).run(
            _triple, POINTS[:3], keys=keys)
        corrupt_cache_entry(cache, keys[1])
        engine = ExperimentEngine(jobs=1, cache=cache)
        assert engine.run(_triple, POINTS[:3], keys=keys) == VALUES[:3]
        assert engine.stats.cache_hits == 2
        assert engine.stats.executed == 1  # re-ran the corrupted point
        assert cache.get(keys[1]) == VALUES[1]  # healed on disk


# -- harness and CLI integration ---------------------------------------------

class TestHarnessIntegration:
    def test_sweep_renders_error_cell(self, arm):
        arm("raise:fig7 vecadd#2:99")
        engine = ExperimentEngine(keep_going=True)
        result = run_sweep("vecadd", cores=2, n=512,
                           warp_sizes=(2, 4), thread_sizes=(2, 4),
                           engine=engine)
        assert set(result.failures) == {(4, 2)}
        assert result.failures[(4, 2)].exc_type == "FaultInjected"
        assert len(result.cycles) == 3
        rendered = result.render()
        assert "1 cell(s) failed" in rendered
        assert "w=4 t=2: ERROR(FaultInjected" in rendered
        assert engine.stats.failed == 1

    def test_cli_fig7_keep_going_renders_error_and_exits_1(
            self, arm, capsys):
        from repro.__main__ import main

        arm("raise:fig7 transpose#0:99")
        rc = main(["fig7", "--warp-sizes", "2", "--thread-sizes", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERROR(FaultInjected" in out
        assert "failed=1" in out

    def test_cli_fig7_fail_fast_aborts(self, arm, capsys):
        from repro.__main__ import main

        arm("raise:fig7 vecadd#0:99")
        rc = main(["fig7", "--warp-sizes", "2", "--thread-sizes", "2",
                   "--fail-fast"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "aborted" in captured.err
        assert "FaultInjected" in captured.err
