"""Checkpoint/restore and cooperative preemption.

The contract under test: snapshotting a mid-flight SimX machine and
resuming it later is **invisible** — the resumed run's result payload,
device memory, per-core counters and DRAM statistics are byte-identical
to a run that was never interrupted, at *any* snapshot cycle
(hypothesis-drawn), on the vectorized, scalar and no-fast-forward
execution paths alike, and on every Table I benchmark. Around that core
sit the failure-mode tests: corrupt, version-skewed or mismatched
snapshots (another configuration, or another launch identity) are
dropped (and counted) in favour of a clean re-run, arming a launch
copies nothing, the engine requeues a preempted point without
charging a retry only while its snapshot cycle advances, orphaned
snapshot temp files are swept at startup, and the daemon puts a
preempted job back on its queue without journalling it done.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks import all_benchmarks, run_benchmark
from repro.errors import (
    CheckpointError,
    PointFailure,
    SimulationPreempted,
)
from repro.fingerprint import code_fingerprint
from repro.harness.dse import run_dse
from repro.harness.engine import ExperimentEngine
from repro.harness.faults import corrupt_checkpoint
from repro.harness.result_cache import ResultCache
from repro.harness.sweep import (
    fig7_problem,
    fig7_snapshot_id,
    run_sweep,
    sweep_point,
)
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.simx.checkpoint import (
    SNAPSHOT_VERSION,
    CheckpointPlan,
    CheckpointStore,
    checkpoint_spec,
)
from repro.vortex.simx.machine import (
    NO_FASTFORWARD_ENV,
    WARP_DUMP_MAX,
    Machine,
)

CONFIG = VortexConfig(cores=2, warps=2, threads=2)
N = 1024

#: fine snapshot cadence so hypothesis-drawn preempt cycles land on
#: many distinct boundaries instead of collapsing onto CHECK_INTERVAL.
EVERY = 1000

_UNIQUE = itertools.count()

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


#: snapshot id of the vecadd cell's (only) launch on CONFIG.
VECADD_L0 = fig7_snapshot_id("vecadd", CONFIG,
                             fig7_problem("vecadd", N)) + ".L0"


def _spec(tmp_path, **extra):
    return {"dir": str(tmp_path), "every": EVERY, **extra}


def _machine_digest(machine, result):
    """Everything observable about a finished machine, hashable."""
    return {
        "memory": hashlib.sha256(machine.memory.data).hexdigest(),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cores": [
            (c.stats.instructions, c.stats.cycles_active,
             c.stats.idle_cycles, c.stats.lsu_stalls, c.stats.lsu_replays,
             c.stats.scoreboard_stalls, c.stats.barrier_waits,
             c.stats.simt_instructions,
             c.dcache.stats.accesses, c.dcache.stats.hits,
             c.dcache.stats.misses)
            for c in machine.cores
        ],
        "dram": (machine.dram.stats.requests, machine.dram.stats.row_hits,
                 machine.dram.stats.row_misses),
        "printf": list(machine.printf_output),
    }


def _run_vecadd(config, n, checkpoint=None, profiler=None, seed=0,
                local=None):
    """One vecadd launch capturing the final machine state digest.
    ``seed`` draws the inputs; ``local`` is the work-group size."""
    import numpy as np

    from repro.benchmarks import get_benchmark
    from repro.ocl import Context

    captured = {}
    backend = VortexBackend(
        config, checkpoint=checkpoint, profiler=profiler,
        launch_hook=lambda m, r: captured.update(
            digest=_machine_digest(m, r)))
    ctx = Context(backend)
    prog = ctx.program(get_benchmark("vecadd").build())
    rng = np.random.default_rng(seed)
    a = ctx.buffer(rng.random(n, dtype=np.float32))
    b = ctx.buffer(rng.random(n, dtype=np.float32))
    c = ctx.alloc(n)
    if local is None:
        local = min(16, config.warps * config.threads)
    prog.launch("vecadd", [a, b, c, n], n, local)
    return captured["digest"], c.host.copy()


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted reference payloads, one simulation each."""
    return {
        "vecadd": sweep_point("vecadd", CONFIG, N),
        "transpose": sweep_point("transpose", CONFIG, N),
    }


# -- round trip --------------------------------------------------------------


class TestRoundTrip:
    def test_preempt_writes_snapshot_and_resume_matches(
            self, tmp_path, baseline):
        spec = _spec(tmp_path, preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted) as exc_info:
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert exc_info.value.cycle >= 5_000
        store = CheckpointStore(tmp_path)
        assert store.path(VECADD_L0).exists()
        resumed = sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert resumed == baseline["vecadd"]
        # the resume was recorded durably, and the spent snapshot gone.
        assert store.hit_count() == 1
        assert not store.path(VECADD_L0).exists()

    def test_restore_rebinds_register_rows(self, tmp_path, baseline,
                                           monkeypatch):
        """Restored ``x``/``f`` arrays replace the live ones, so every
        warp's row views must be rebound to them: a stale row would
        write into a dead array and the resumed run would diverge."""
        import numpy as np

        from repro.vortex.simx import checkpoint as ckpt_mod

        restored = []
        real_restore = ckpt_mod.restore_state

        def checked_restore(machine, state):
            real_restore(machine, state)
            for core in machine.cores:
                for warp in core.warps:
                    for r in range(32):
                        assert np.shares_memory(warp.xr[r], warp.x[r])
                        assert np.shares_memory(warp.fr[r], warp.f[r])
            restored.append(machine)

        monkeypatch.setattr(ckpt_mod, "restore_state", checked_restore)
        spec = _spec(tmp_path, preempt_at_cycle=6_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert sweep_point("vecadd", CONFIG, N,
                           checkpoint=spec) == baseline["vecadd"]
        assert len(restored) == 1

    def test_transpose_roundtrip(self, tmp_path, baseline):
        spec = _spec(tmp_path, preempt_at_cycle=3_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("transpose", CONFIG, N, checkpoint=spec)
        assert (sweep_point("transpose", CONFIG, N, checkpoint=spec)
                == baseline["transpose"])

    def test_full_machine_state_identical_after_resume(self, tmp_path):
        """Memory, registers' effects, CacheStats, DRAM stats — not just
        the result payload — match an uninterrupted run."""
        ref_digest, ref_out = _run_vecadd(CONFIG, N)
        store = CheckpointStore(tmp_path)
        plan = CheckpointPlan(store, "deep", every_cycles=EVERY,
                              preempt_at_cycle=7_000)
        with pytest.raises(SimulationPreempted):
            _run_vecadd(CONFIG, N, checkpoint=plan)
        plan2 = CheckpointPlan(store, "deep", every_cycles=EVERY)
        digest, out = _run_vecadd(CONFIG, N, checkpoint=plan2)
        assert store.hit_count() == 1
        assert digest == ref_digest
        assert (out == ref_out).all()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frac=st.integers(0, 9999))
    def test_resume_identical_at_any_cycle(self, tmp_path, baseline,
                                           frac):
        total = baseline["vecadd"]["cycles"]
        # clamp below the last snapshot boundary the run can reach.
        cycle = 1 + frac * max(1, total - 2 * EVERY) // 10_000
        # fresh directory per example: replayed/shrunk examples must not
        # find the previous example's spent one-shot preempt marker.
        spec = _spec(tmp_path / f"hy{next(_UNIQUE)}", preempt_at_cycle=cycle)
        with pytest.raises(SimulationPreempted) as exc_info:
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert exc_info.value.cycle >= cycle
        assert (sweep_point("vecadd", CONFIG, N, checkpoint=spec)
                == baseline["vecadd"])

    def test_resumed_launch_resumes_again(self, tmp_path, baseline):
        """A resumed launch snapshots under the identity it restored:
        preempted at a cycle, resumed, preempted by the stop file and
        resumed again, it counts two hits and ends as a straight run."""
        with pytest.raises(SimulationPreempted) as first:
            sweep_point("vecadd", CONFIG, N,
                        checkpoint=_spec(tmp_path, preempt_at_cycle=5_000))
        stop = tmp_path / "STOP"
        stop.touch()
        with pytest.raises(SimulationPreempted) as second:
            sweep_point("vecadd", CONFIG, N,
                        checkpoint=_spec(tmp_path, stop_file=str(stop)))
        assert second.value.cycle > first.value.cycle
        stop.unlink()
        assert (sweep_point("vecadd", CONFIG, N, checkpoint=_spec(tmp_path))
                == baseline["vecadd"])
        assert CheckpointStore(tmp_path).hit_count() == 2

    @pytest.mark.parametrize("env", ["REPRO_SIMX_SCALAR",
                                     NO_FASTFORWARD_ENV])
    def test_roundtrip_on_alternate_execution_paths(
            self, tmp_path, monkeypatch, env):
        monkeypatch.setenv(env, "1")
        ref = sweep_point("vecadd", CONFIG, N)
        spec = _spec(tmp_path, preempt_at_cycle=4_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert sweep_point("vecadd", CONFIG, N, checkpoint=spec) == ref


# -- snapshot store failure modes --------------------------------------------


class TestStore:
    @pytest.mark.parametrize("skew", ["fingerprint", "version"])
    def test_version_skew_dropped_and_counted(self, tmp_path, skew):
        writer = CheckpointStore(tmp_path, fingerprint="old-code")
        saved = writer.save("p", {"now": 7})
        if skew == "fingerprint":
            reader = CheckpointStore(tmp_path, fingerprint="new-code")
        else:
            # An older format's header over an intact payload: only the
            # version check can refuse it.
            raw = saved.read_bytes()
            nl = raw.index(b"\n")
            header = json.loads(raw[:nl])
            header["version"] = SNAPSHOT_VERSION - 1
            saved.write_bytes(json.dumps(header).encode() + raw[nl:])
            reader = CheckpointStore(tmp_path, fingerprint="old-code")
        assert reader.load("p") is None
        assert reader.stale_dropped == 1
        assert not reader.path("p").exists()

    def test_default_fingerprint_loads_no_harness(self, tmp_path):
        """A store keys on the code fingerprint without importing the
        harness, so the simulator stays below it in the layering."""
        script = (
            "import sys\n"
            "from repro.vortex.simx.checkpoint import CheckpointStore\n"
            f"print(CheckpointStore({str(tmp_path)!r}).fingerprint)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.harness')))\n")
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True, env=dict(os.environ, PYTHONPATH=REPO_SRC),
        ).stdout.splitlines()
        assert out == [code_fingerprint(), "[]"]

    def test_corrupt_payload_dropped_and_counted(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="f")
        store.save("p", {"now": 7, "blob": list(range(64))})
        corrupt_checkpoint(store, "p")
        assert store.load("p") is None
        assert store.corrupt_dropped == 1
        assert not store.path("p").exists()

    def test_point_id_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="f")
        saved = store.save("right", {"now": 1})
        os.replace(saved, store.path("wrong"))
        assert store.load("wrong") is None

    def test_corrupt_snapshot_degrades_to_clean_run(self, tmp_path,
                                                    baseline):
        spec = _spec(tmp_path, preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        store = CheckpointStore(tmp_path)
        corrupt_checkpoint(store, VECADD_L0)
        assert (sweep_point("vecadd", CONFIG, N, checkpoint=spec)
                == baseline["vecadd"])
        assert store.hit_count() == 0  # clean re-run, not a resume

    @pytest.mark.parametrize("other", [
        {"config": VortexConfig(cores=1, warps=4, threads=4)},
        {"config": replace(CONFIG, mshrs=4)},
        {"seed": 1},
        {"local": 2},
    ], ids=["geometry", "mshrs", "inputs", "ndrange"])
    def test_config_mismatch_degrades_to_clean_run(self, tmp_path, other):
        """A snapshot from another configuration — another geometry, or
        the same (C, W, T) with fewer MSHRs — or from another launch on
        the same configuration — other inputs, or another work-group
        size — found under the same name fails resume verification
        (CheckpointError) and the launch restarts from scratch."""
        store = CheckpointStore(tmp_path)
        with pytest.raises(SimulationPreempted):
            _run_vecadd(CONFIG, N, checkpoint=CheckpointPlan(
                store, "shared", every_cycles=EVERY, preempt_at_cycle=5_000))
        launch = {"config": CONFIG, "n": N, **other}
        ref_digest, ref_out = _run_vecadd(**launch)
        plan = CheckpointPlan(store, "shared", every_cycles=EVERY)
        digest, out = _run_vecadd(**launch, checkpoint=plan)
        assert digest == ref_digest
        assert (out == ref_out).all()
        assert store.hit_count() == 0
        assert not store.path("shared.L0").exists()

    def test_snapshot_resumes_only_its_own_cell(self, tmp_path, baseline):
        """Snapshots are named by the whole cell: the default-config
        snapshot of a (C, W, T) is not the mshrs=4 cell's to resume."""
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N,
                        checkpoint=_spec(tmp_path, preempt_at_cycle=5_000))
        store = CheckpointStore(tmp_path)
        assert store.path(VECADD_L0).exists()
        grid = dict(cores=2, n=N, warp_sizes=(2,), thread_sizes=(2,),
                    base_config=VortexConfig(mshrs=4))
        clean = run_sweep("vecadd", **grid)
        assert clean.cycles[(2, 2)] != baseline["vecadd"]["cycles"]
        resumed = run_sweep("vecadd", **grid, checkpoint=checkpoint_spec(
            tmp_path, EVERY, None))
        assert resumed.cycles == clean.cycles
        assert store.hit_count() == 0

    def test_cell_resumes_under_any_n_of_its_launch(self, tmp_path):
        """transpose builds one 16x16 launch for n=64 and for n=512, so
        a cell preempted at one resumes at the other."""
        straight = sweep_point("transpose", CONFIG, 512)
        with pytest.raises(SimulationPreempted):
            sweep_point("transpose", CONFIG, 64,
                        checkpoint=_spec(tmp_path, preempt_at_cycle=1_000))
        resumed = sweep_point("transpose", CONFIG, 512,
                              checkpoint=_spec(tmp_path))
        assert resumed == straight
        assert CheckpointStore(tmp_path).hit_count() == 1

    @pytest.mark.parametrize("runner", ["run_dse", "execute_job"])
    def test_any_runner_resumes_the_cell(self, tmp_path, baseline, runner):
        """A cell preempted under the sweep resumes as a DSE
        confirmation or a service ``fig7-cell`` job, byte-identically."""
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N,
                        checkpoint=_spec(tmp_path, preempt_at_cycle=5_000))
        spec = checkpoint_spec(tmp_path, EVERY, None)
        if runner == "run_dse":
            result = run_dse("vecadd", n=N, core_counts=(CONFIG.cores,),
                             warp_sizes=(CONFIG.warps,),
                             thread_sizes=(CONFIG.threads,),
                             checkpoint=spec)
            assert result.best.config == CONFIG
            assert (result.best.simulated_cycles
                    == baseline["vecadd"]["cycles"])
        else:
            from repro.service.jobs import execute_job, validate_job

            job = validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                                "cores": 2, "warps": 2, "threads": 2,
                                "n": N})
            value = execute_job(job, checkpoint=spec)
            assert (json.dumps(value, sort_keys=True)
                    == json.dumps(baseline["vecadd"], sort_keys=True))
        assert CheckpointStore(tmp_path).hit_count() == 1

    def test_orphan_tmp_files_swept_on_construction(self, tmp_path):
        old = tmp_path / "dead.tmp"
        old.write_bytes(b"x")
        os.utime(old, (1, 1))
        fresh = tmp_path / "live.tmp"
        fresh.write_bytes(b"y")
        CheckpointStore(tmp_path)  # default age: only stale tmp files go
        assert not old.exists()
        assert fresh.exists()
        assert CheckpointStore(tmp_path, sweep_age_s=0.0) is not None
        assert not fresh.exists()

    @pytest.mark.parametrize("entry", ["run_sweep", "run_dse"])
    def test_batch_runs_spare_fresh_tmp_files(self, tmp_path, entry):
        """Concurrent runs (or the daemon) may share a checkpoint dir, so
        a batch run reaps only stale temp files, never a fresh one that
        may be another writer's snapshot in flight."""
        live = tmp_path / "tmpinflight.tmp"
        live.write_bytes(b"half a snapshot")
        grid = dict(n=64, warp_sizes=(2,), thread_sizes=(2,))
        if entry == "run_sweep":
            run_sweep("vecadd", cores=1,
                      checkpoint=checkpoint_spec(tmp_path, None, None),
                      **grid)
        else:
            run_dse("vecadd", core_counts=(1,),
                    checkpoint=checkpoint_spec(tmp_path, None, None),
                    **grid)
        assert live.exists()

    def test_profiled_launch_keeps_the_snapshot(self, tmp_path):
        """A launch that cannot checkpoint (a live profiler) refuses
        before it reads the plan's snapshot, so the snapshot survives
        for the next checkpointed run."""
        from repro.profiling import Profiler

        store = CheckpointStore(tmp_path)
        with pytest.raises(SimulationPreempted):
            _run_vecadd(CONFIG, N, checkpoint=CheckpointPlan(
                store, "cell", every_cycles=EVERY, preempt_at_cycle=5_000))
        with pytest.raises(CheckpointError):
            _run_vecadd(CONFIG, N, profiler=Profiler(),
                        checkpoint=CheckpointPlan(store, "cell"))
        assert store.path("cell.L0").exists()
        _run_vecadd(CONFIG, N, checkpoint=CheckpointPlan(store, "cell"))
        assert store.hit_count() == 1

    def test_resume_verification_runs_before_mutation(self, tmp_path):
        spec = _spec(tmp_path, preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        store = CheckpointStore(tmp_path)
        state = store.load(VECADD_L0)
        from repro.vortex.simx.checkpoint import verify_resume

        machine = Machine(CONFIG)
        machine.memory.host_crc = state["host_crc"]
        verify_resume(machine, state)
        state["host_crc"] ^= 1
        with pytest.raises(CheckpointError):
            verify_resume(machine, state)


# -- engine scheduling -------------------------------------------------------


class TestEnginePreemption:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_requeue_uncharged(self, tmp_path, baseline, jobs):
        """Inline (jobs=1) and on the pool (jobs=2: two points, so they
        do not run inline) each cell yields once and resumes from its
        snapshot without being charged a retry."""
        spec = _spec(tmp_path, preempt_at_cycle=5_000)
        with ExperimentEngine(jobs=jobs, keep_going=True,
                              retries=0) as engine:
            values = engine.run(sweep_point,
                                [(name, CONFIG, N, False, spec)
                                 for name in ("vecadd", "transpose")])
        assert values == [baseline["vecadd"], baseline["transpose"]]
        assert engine.stats.preempted == 2
        assert engine.stats.failed == 0
        assert engine.stats.retried == 0

    def test_no_progress_preemption_finalises(self):
        def stuck(_):
            raise SimulationPreempted("p", 100)

        engine = ExperimentEngine(jobs=1, keep_going=True, retries=0)
        values = engine.run(stuck, [(0,)])
        failure = values[0]
        assert isinstance(failure, PointFailure)
        assert failure.exc_type == "SimulationPreempted"
        assert engine.stats.preempted == 1  # first yield was free
        assert engine.stats.failed == 1

    def test_forward_progress_requeues_repeatedly(self):
        cycles = iter([100, 200, 300])

        def advancing(_):
            for cycle in cycles:
                raise SimulationPreempted("p", cycle)
            return "done"

        engine = ExperimentEngine(jobs=1, keep_going=True, retries=0)
        assert engine.run(advancing, [(0,)]) == ["done"]
        assert engine.stats.preempted == 3
        assert engine.stats.failed == 0

    def test_stop_preempting_finalises_immediately(self):
        def yielding(_):
            raise SimulationPreempted("p", 100)

        engine = ExperimentEngine(jobs=1, keep_going=True, retries=0)
        engine.stop_preempting()
        values = engine.run(yielding, [(0,)])
        assert isinstance(values[0], PointFailure)
        assert engine.stats.preempted == 0

    def test_preemption_is_not_a_repro_error(self):
        """ReproError handlers in benchmark/harness code must never
        swallow a preemption — it is a control-flow signal."""
        from repro.errors import ReproError

        assert not issubclass(SimulationPreempted, ReproError)

    def test_backoff_jitter_bounds(self, monkeypatch):
        delays = []
        monkeypatch.setattr("repro.harness.engine.time.sleep",
                            delays.append)
        engine = ExperimentEngine(jobs=1, retry_backoff=0.4)
        for _ in range(50):
            engine._sleep_backoff(2)  # base 0.4 * 2**0
        assert all(0.2 <= d < 0.6 for d in delays)
        assert len(set(delays)) > 1  # actually jittered

    def test_cache_keys_unchanged_by_checkpointing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(warp_sizes=(2,), thread_sizes=(2, 4), n=N)
        first = run_sweep("vecadd", cache=cache,
                          checkpoint=checkpoint_spec(tmp_path / "ck",
                                                     None, None),
                          **kwargs)
        engine = ExperimentEngine(cache=cache)
        second = run_sweep("vecadd", engine=engine, **kwargs)
        assert second.cycles == first.cycles
        assert engine.stats.cache_hits == 2
        assert engine.stats.executed == 0


# -- daemon integration ------------------------------------------------------


class TestDaemonPreemption:
    def _daemon(self, tmp_path, **kwargs):
        from repro.service.daemon import ExperimentDaemon

        return ExperimentDaemon(tmp_path / "state",
                                checkpoint_dir=tmp_path / "ck",
                                **kwargs)

    def test_job_checkpoint_spec(self, tmp_path):
        from repro.service.daemon import _Job

        daemon = self._daemon(tmp_path, point_timeout=10.0)
        fig7 = _Job(id="j1", key="k" * 40, seq=1,
                    spec={"kind": "fig7-cell"})
        spec = daemon._job_checkpoint(fig7)
        assert spec == checkpoint_spec(tmp_path / "ck", None, 10.0,
                                       spec["stop_file"])
        assert spec["deadline_s"] == pytest.approx(8.0)
        assert spec["stop_file"].endswith("STOP")
        probe = _Job(id="j2", key="p", seq=2, spec={"kind": "probe"})
        assert daemon._job_checkpoint(probe) is None

    def test_preempted_job_requeues_without_journal_record(
            self, tmp_path):
        from repro.service.daemon import QUEUED, RUNNING, _Job

        daemon = self._daemon(tmp_path)
        job = _Job(id="j1", key="k", seq=1, state=RUNNING,
                   spec={"kind": "fig7-cell"}, clients={"c"})
        daemon._jobs[job.id] = job
        daemon._running = 1
        daemon._inflight["c"] = 1
        appended_before = daemon.journal.appended
        daemon._job_finished(job, PointFailure(
            exc_type="SimulationPreempted", message="yield"))
        assert job.state == QUEUED
        assert daemon._queue[0] is job
        assert daemon._running == 0
        assert daemon._inflight == {"c": 1}  # slot kept for the resume
        assert daemon.journal.appended == appended_before

    def test_stop_drops_stop_file_and_start_clears_it(self, tmp_path):
        daemon = self._daemon(tmp_path)
        daemon.start()
        try:
            stop_file = daemon._stop_file_path()
            assert not stop_file.exists()
        finally:
            daemon.request_stop()
            assert daemon.wait(30)
        assert stop_file.exists()
        # a new daemon must not inherit the shutdown signal.
        daemon2 = self._daemon(tmp_path)
        daemon2.start()
        try:
            assert not stop_file.exists()
        finally:
            daemon2.request_stop()
            assert daemon2.wait(30)

    def test_health_reports_checkpoint_hits(self, tmp_path):
        daemon = self._daemon(tmp_path)
        daemon.start()
        try:
            reply = daemon._op_health()
            assert reply["checkpoints"]["hits"] == 0
            assert reply["checkpoints"]["dir"] == str(tmp_path / "ck")
            assert reply["engine"]["preempted"] == 0
        finally:
            daemon.request_stop()
            assert daemon.wait(30)


# -- bounded warp dumps ------------------------------------------------------


class TestWarpDump:
    def test_small_config_renders_every_warp(self):
        machine = Machine(VortexConfig(cores=1, warps=4, threads=2))
        dump = machine.describe_warp_states(0)
        assert len(dump.splitlines()) == 4
        assert "omitted" not in dump

    def test_large_config_is_capped_with_summary(self):
        machine = Machine(VortexConfig(cores=2, warps=32, threads=2))
        dump = machine.describe_warp_states(0)
        lines = dump.splitlines()
        assert len(lines) == WARP_DUMP_MAX + 1
        assert f"... {64 - WARP_DUMP_MAX} more warp(s) omitted" in lines[-1]
        assert f"dump capped at {WARP_DUMP_MAX}" in lines[-1]

    def test_problem_warps_survive_the_cap(self):
        machine = Machine(VortexConfig(cores=2, warps=32, threads=2))
        # mark one late warp as stuck at a barrier: it must outrank the
        # halted warps that precede it in machine order.
        warp = machine.cores[1].warps[31]
        warp.active = True
        warp.at_barrier = True
        dump = machine.describe_warp_states(0, max_warps=8)
        assert "barrier" in dump
        assert "1 problem of 64 total" in dump


# -- snapshot header hygiene -------------------------------------------------


def test_snapshot_header_is_one_json_line(tmp_path):
    store = CheckpointStore(tmp_path, fingerprint="f")
    path = store.save("p", {"now": 3})
    raw = path.read_bytes()
    header = json.loads(raw[:raw.index(b"\n")])
    assert header["magic"] == "repro-simx-snapshot"
    assert header["cycle"] == 3
    assert header["payload_len"] == len(raw) - raw.index(b"\n") - 1


# -- the snapshot's memory image ---------------------------------------------


def test_memory_image_round_trip(tmp_path):
    """A snapshot holds device memory itself, not a delta against what
    the host wrote: an 8-byte word the host marshalled and the kernel
    zeroed comes back zero, and a word in the last 8 bytes of device
    memory comes back, through capture, the store's pickle and a
    restore onto a fresh machine that the host loaded the same way."""
    import numpy as np

    from repro.vortex import layout
    from repro.vortex.simx.checkpoint import (
        capture_state,
        restore_state,
        verify_resume,
    )

    heap = layout.HEAP_BASE

    def marshalled():
        machine = Machine(CONFIG)
        machine.memory.write_words(heap, np.array([7, 7, 9],
                                                  dtype=np.int32))
        return machine

    machine = marshalled()
    mem = machine.memory
    mem.write_word(heap, 0)  # as kernel stores would
    mem.write_word(heap + 4, 0)
    mem.data[-8:] = np.arange(1, 9, dtype=np.uint8)
    store = CheckpointStore(tmp_path, fingerprint="f")
    store.save("image", capture_state(machine, 5))
    state = store.load("image")

    fresh = marshalled()
    verify_resume(fresh, state)
    restore_state(fresh, state)
    assert fresh.memory.read_bytes(heap, 12) == mem.read_bytes(heap, 12)
    assert not any(fresh.memory.read_bytes(heap, 8))
    assert fresh.memory.read_bytes(mem.size - 8, 8) == bytes(range(1, 9))
    assert np.array_equal(fresh.memory.data, mem.data)
    assert fresh.memory.host_crc == mem.host_crc


def test_arming_allocates_nothing_proportional_to_memory(tmp_path):
    """An armed launch with no snapshot due copies nothing: its
    tracemalloc peak is within 1 MiB of the plain launch's (the device
    memory alone is 64 MiB)."""
    import tracemalloc

    config = VortexConfig(cores=4, warps=4, threads=4)
    store = CheckpointStore(tmp_path)
    _run_vecadd(config, 256)  # imports and first-use caches

    def peak(checkpoint):
        tracemalloc.start()
        try:
            _run_vecadd(config, 256, checkpoint=checkpoint)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(None)
    armed = peak(CheckpointPlan(store, "armed"))
    assert armed - plain <= 1 << 20, (plain, armed)
    assert not store.path("armed.L0").exists()


# -- every benchmark resumes byte-identically --------------------------------

#: the benchmarks the tier-1 run round-trips: printf, atomics, barriers
#: with local memory, and four launches. The other 24 are ``slow``.
ROUNDTRIP_TIER1 = ("oclprintf", "hybridsort", "dotproduct", "lud")


class _PreemptOneLaunch(CheckpointPlan):
    """Snapshots every 64 cycles; yields only in launch ``launch``, at
    the first boundary at or past ``cycle`` (never when ``launch`` is
    ``None``)."""

    def __init__(self, store, launch=None, cycle=None):
        super().__init__(store, "bench", every_cycles=64)
        self.target = None if launch is None else f"bench.L{launch}"
        self.cycle = cycle

    def due_preempt(self, now, run_start):
        return (self.launch_id == self.target
                and run_start < self.cycle <= now)


@pytest.mark.parametrize("name", [
    pytest.param(b.name, marks=() if b.name in ROUNDTRIP_TIER1
                 else pytest.mark.slow)
    for b in all_benchmarks()])
def test_benchmark_resumes_byte_identically(tmp_path, name):
    """Preempt one seeded launch of the benchmark at a seeded cycle and
    resume: every launch's cycles, its counters and its device memory
    equal the straight run's, with exactly one hit."""
    config = VortexConfig().with_geometry(cores=2, warps=4, threads=4)

    def run(plan):
        launches = []
        backend = VortexBackend(
            config, checkpoint=plan,
            launch_hook=lambda m, r: launches.append(
                (r.counters, hashlib.sha256(m.memory.data).hexdigest())))
        assert run_benchmark(name, backend).ok
        return launches

    straight = run(None)
    rng = random.Random(name)
    launch = rng.randrange(len(straight))
    cycle = rng.randrange(1, straight[launch][0]["cycles"] // 2)
    store = CheckpointStore(tmp_path)
    with pytest.raises(SimulationPreempted):
        run(_PreemptOneLaunch(store, launch, cycle))
    assert run(_PreemptOneLaunch(store)) == straight
    assert store.hit_count() == 1
