"""Checkpoint/restore and cooperative preemption.

The contract under test: snapshotting a mid-flight SimX machine and
resuming it later is **invisible** — the resumed run's result payload,
device memory, per-core counters and DRAM statistics are byte-identical
to a run that was never interrupted, at *any* snapshot cycle
(hypothesis-drawn), on the vectorized, scalar and no-fast-forward
execution paths alike. Around that core sit the failure-mode tests:
corrupt or version-skewed snapshots are dropped (and counted) in favour
of a clean re-run, the engine requeues a preempted point without
charging a retry only while its snapshot cycle advances, orphaned
snapshot temp files are swept at startup, and the daemon puts a
preempted job back on its queue without journalling it done.
"""

import hashlib
import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CheckpointError,
    PointFailure,
    SimulationPreempted,
)
from repro.harness.dse import run_dse
from repro.harness.engine import ExperimentEngine
from repro.harness.faults import corrupt_checkpoint
from repro.harness.result_cache import ResultCache
from repro.harness.sweep import run_sweep, sweep_point
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.simx.checkpoint import (
    SNAPSHOT_VERSION,
    CheckpointPlan,
    CheckpointStore,
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


def _spec(tmp_path, point_id, **extra):
    return {"dir": str(tmp_path), "point_id": point_id, "every": EVERY,
            **extra}


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


def _run_vecadd(config, n, checkpoint=None):
    """One vecadd launch capturing the final machine state digest."""
    import numpy as np

    from repro.benchmarks import get_benchmark
    from repro.ocl import Context

    captured = {}
    backend = VortexBackend(
        config, checkpoint=checkpoint,
        launch_hook=lambda m, r: captured.update(
            digest=_machine_digest(m, r)))
    ctx = Context(backend)
    prog = ctx.program(get_benchmark("vecadd").build())
    rng = np.random.default_rng(0)
    a = ctx.buffer(rng.random(n, dtype=np.float32))
    b = ctx.buffer(rng.random(n, dtype=np.float32))
    c = ctx.alloc(n)
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
        spec = _spec(tmp_path, "rt", preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted) as exc_info:
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert exc_info.value.cycle >= 5_000
        store = CheckpointStore(tmp_path)
        assert store.path("rt.L0").exists()
        resumed = sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert resumed == baseline["vecadd"]
        # the resume was recorded durably, and the spent snapshot gone.
        assert store.hit_count() == 1
        assert not store.path("rt.L0").exists()

    def test_transpose_roundtrip(self, tmp_path, baseline):
        spec = _spec(tmp_path, "tr", preempt_at_cycle=3_000)
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
        assert plan2.hits == 1
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
        # fresh point id per example: replayed/shrunk examples must not
        # find the previous example's spent one-shot preempt marker.
        spec = _spec(tmp_path, f"hy{next(_UNIQUE)}-{frac}",
                     preempt_at_cycle=cycle)
        with pytest.raises(SimulationPreempted) as exc_info:
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        assert exc_info.value.cycle >= cycle
        assert (sweep_point("vecadd", CONFIG, N, checkpoint=spec)
                == baseline["vecadd"])

    @pytest.mark.parametrize("env", ["REPRO_SIMX_SCALAR",
                                     NO_FASTFORWARD_ENV])
    def test_roundtrip_on_alternate_execution_paths(
            self, tmp_path, monkeypatch, env):
        monkeypatch.setenv(env, "1")
        ref = sweep_point("vecadd", CONFIG, N)
        spec = _spec(tmp_path, f"alt-{env}", preempt_at_cycle=4_000)
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
        spec = _spec(tmp_path, "cor", preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        store = CheckpointStore(tmp_path)
        corrupt_checkpoint(store, "cor.L0")
        assert (sweep_point("vecadd", CONFIG, N, checkpoint=spec)
                == baseline["vecadd"])
        assert store.hit_count() == 0  # clean re-run, not a resume

    def test_config_mismatch_degrades_to_clean_run(self, tmp_path):
        """A snapshot from another geometry fails resume verification
        (CheckpointError) and the launch restarts from scratch."""
        spec_a = _spec(tmp_path, "shared", preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec_a)
        other = VortexConfig(cores=1, warps=4, threads=4)
        ref = sweep_point("vecadd", other, N)
        spec_b = _spec(tmp_path, "shared")
        assert sweep_point("vecadd", other, N, checkpoint=spec_b) == ref
        store = CheckpointStore(tmp_path)
        assert store.hit_count() == 0
        assert not store.path("shared.L0").exists()

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
        grid = dict(n=64, warp_sizes=(2,), thread_sizes=(2,),
                    checkpoint_dir=tmp_path)
        if entry == "run_sweep":
            run_sweep("vecadd", cores=1, **grid)
        else:
            run_dse("vecadd", core_counts=(1,), **grid)
        assert live.exists()

    def test_resume_verification_runs_before_mutation(self, tmp_path):
        spec = _spec(tmp_path, "ver", preempt_at_cycle=5_000)
        with pytest.raises(SimulationPreempted):
            sweep_point("vecadd", CONFIG, N, checkpoint=spec)
        store = CheckpointStore(tmp_path)
        state = store.load("ver.L0")
        state["ndrange"] = ((999, 1, 1), (1, 1, 1))
        from repro.ocl.ndrange import NDRange
        from repro.vortex.simx.checkpoint import verify_resume

        machine = Machine(CONFIG)
        with pytest.raises(CheckpointError):
            verify_resume(machine, NDRange.create(N, 8), state)


# -- engine scheduling -------------------------------------------------------


class TestEnginePreemption:
    def test_serial_requeue_uncharged(self, tmp_path, baseline):
        spec = _spec(tmp_path, "eng", preempt_at_cycle=5_000)
        engine = ExperimentEngine(jobs=1, keep_going=True, retries=0)
        values = engine.run(sweep_point,
                            [("vecadd", CONFIG, N, False, spec)])
        assert values[0] == baseline["vecadd"]
        assert engine.stats.preempted == 1
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
        kwargs = dict(warp_sizes=(2,), thread_sizes=(2, 4), n=N,
                      cache=cache)
        first = run_sweep("vecadd", checkpoint_dir=tmp_path / "ck",
                          **kwargs)
        second = run_sweep("vecadd", **kwargs)
        assert second.cycles == first.cycles
        assert second.engine_stats.cache_hits == 2
        assert second.engine_stats.executed == 0


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
        assert spec["point_id"] == "job-" + "k" * 16
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


def test_store_save_roundtrips_at_any_compression_level(tmp_path):
    """Hot-path snapshots use zlib level 0 (stored blocks); ``load``
    must accept any level since the header never records one."""
    state = {"now": 7, "blob": list(range(1000))}
    for level in (0, 1, 9):
        store = CheckpointStore(tmp_path / f"l{level}", fingerprint="f")
        store.save("p", state, level=level)
        assert store.load("p") == state


# -- snapshot cost controls --------------------------------------------------


def test_delta_indices_matches_bytewise():
    import numpy as np

    from repro.vortex.simx.checkpoint import _delta_indices

    rng = np.random.default_rng(42)
    for size in (0, 8, 64, 4096, 4096 + 3):  # incl. non-multiple-of-8
        base = rng.integers(0, 256, size, dtype=np.uint8)
        mem = base.copy()
        if size:
            dirty = rng.integers(0, size, size // 7 + 1)
            mem[dirty] ^= rng.integers(1, 256, len(dirty),
                                       dtype=np.uint8)
        expect = np.flatnonzero(mem != base)
        got = _delta_indices(mem, base)
        assert np.array_equal(got, expect)
        assert np.array_equal(_delta_indices(base, base.copy()),
                              np.empty(0, dtype=np.intp))


def test_adaptive_cadence_stretches_only_defaulted_plans(tmp_path):
    from repro.vortex.simx.checkpoint import (
        ADAPT_MAX_EVERY_CYCLES,
        DEFAULT_EVERY_CYCLES,
    )

    store = CheckpointStore(tmp_path, fingerprint="f")
    assert CheckpointPlan(store, "p", every_cycles=EVERY).adaptive is False
    plan = CheckpointPlan(store, "p")
    assert plan.adaptive is True
    assert plan.every_cycles == DEFAULT_EVERY_CYCLES

    # An expensive snapshot right after the previous one (zero elapsed
    # interval makes any positive cost exceed the target fraction).
    control = plan.next_control()
    control._prev_save_end = float("inf")  # force since=0 via max(.,0)
    before = control.every_cycles
    import repro.vortex.simx.checkpoint as ck

    real_capture = ck.capture_state
    ck.capture_state = lambda machine, now: {"now": now}
    try:
        control.save(machine=None, now=123)
    finally:
        ck.capture_state = real_capture
    assert control.every_cycles == 2 * before
    # the stretch is reported back to the plan for later launches...
    assert plan.every_cycles == 2 * before
    assert plan.next_control().every_cycles == 2 * before
    # ...and is capped.
    control.every_cycles = ADAPT_MAX_EVERY_CYCLES
    ck.capture_state = lambda machine, now: {"now": now}
    try:
        control.save(machine=None, now=124)
    finally:
        ck.capture_state = real_capture
    assert control.every_cycles == ADAPT_MAX_EVERY_CYCLES
