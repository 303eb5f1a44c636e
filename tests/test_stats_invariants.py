"""Structural invariants of the simulators' performance counters.

These don't pin absolute numbers (those shift when the timing model is
tuned); they pin the *accounting identities* every model must keep:
hit/miss splits summing to totals, rates staying in [0, 1] (including
the zero-access corner), per-core busy/idle bookkeeping being
consistent with the machine clock, and derived times scaling linearly
with the clock.
"""

import numpy as np
import pytest

from repro.ocl import (
    Context,
    GLOBAL_INT32,
    INT32,
    KernelBuilder,
    NDRange,
)
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.simx.cache import Cache, CacheStats
from repro.vortex.simx.dram import DRAMStats
from repro.vortex.simx.machine import LaunchResult, Machine

CONFIG = VortexConfig(cores=2, warps=4, threads=4)


# -- kernels exercising different machine paths ------------------------------

def _streaming_kernel():
    b = KernelBuilder("stream")
    src = b.param("src", GLOBAL_INT32)
    dst = b.param("dst", GLOBAL_INT32)
    gid = b.global_id(0)
    b.store(dst, gid, b.add(b.load(src, gid), 3))
    return b.finish()


def _barrier_kernel():
    b = KernelBuilder("bar")
    dst = b.param("dst", GLOBAL_INT32)
    lmem = b.local_array("lmem", INT32, 8)
    gid = b.global_id(0)
    lid = b.local_id(0)
    b.store(lmem, lid, gid)
    b.barrier()
    b.store(dst, gid, b.load(lmem, b.rem(b.add(lid, 3), b.const(8))))
    return b.finish()


def _launch(kernel, local):
    """Run on SimX capturing the machine-level LaunchResult and Machine."""
    captured = {}

    class _Capture(Machine):
        def launch(self, *args, **kwargs):
            result = super().launch(*args, **kwargs)
            captured["machine"] = self
            captured["result"] = result
            return result

    import repro.vortex.runtime as runtime
    original = runtime.Machine
    runtime.Machine = _Capture
    try:
        ctx = Context(VortexBackend(CONFIG))
        prog = ctx.program([kernel])
        n = 64
        bufs = []
        args = []
        for param in kernel.params:
            buf = ctx.buffer(np.arange(n, dtype=np.int32))
            bufs.append(buf)
            args.append(buf)
        prog.launch(kernel.name, args, n, local)
    finally:
        runtime.Machine = original
    return captured["machine"], captured["result"]


_KERNELS = {
    "streaming": (_streaming_kernel, 16),
    "barrier": (_barrier_kernel, 8),
}


# -- unit-level: cache and DRAM stats ----------------------------------------

def test_cache_accesses_split_into_hits_and_misses():
    cache = Cache(size=1024, ways=2, line_size=64)
    addr = 0x9E3779B9
    for _ in range(500):
        addr = (addr * 1103515245 + 12345) & 0xFFFF
        if not cache.lookup(addr):
            cache.fill(addr)
    stats = cache.stats
    assert stats.accesses == 500
    assert stats.hits + stats.misses == stats.accesses
    assert 0.0 <= stats.hit_rate <= 1.0


def test_zero_access_rates_are_zero_not_nan():
    assert CacheStats().hit_rate == 0.0
    assert DRAMStats().row_hit_rate == 0.0


def test_hit_rate_divides_by_the_accesses_counter():
    # hit_rate is defined against the independent ``accesses`` counter,
    # not the hits+misses sum, so the rate and the split invariant
    # (hits + misses == accesses) can never disagree silently.
    assert CacheStats(accesses=10, hits=4, misses=6).hit_rate == 0.4
    assert CacheStats(accesses=10, hits=5, misses=0).hit_rate == 0.5


# -- machine-level invariants ------------------------------------------------

@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_machine_counter_invariants(name):
    build, local = _KERNELS[name]
    machine, result = _launch(build(), local)

    # cache accounting per core, and the machine-level aggregate rate
    for core in machine.cores:
        s = core.dcache.stats
        assert s.hits + s.misses == s.accesses
        assert 0.0 <= s.hit_rate <= 1.0
    assert 0.0 <= result.dcache_hit_rate <= 1.0

    # DRAM accounting
    d = machine.dram.stats
    assert d.row_hits + d.row_misses == d.requests
    assert 0.0 <= d.row_hit_rate <= 1.0
    assert 0.0 <= result.dram_row_hit_rate <= 1.0

    # the machine clock bounds every core's busy time
    assert result.cycles >= max(s.cycles_active for s in result.core_stats)

    # every scheduler iteration ticks every core exactly once, and each
    # tick books either an active or an idle cycle — so the per-core
    # totals agree across cores and never exceed the machine clock
    ticks = {s.cycles_active + s.idle_cycles for s in result.core_stats}
    assert len(ticks) == 1
    assert ticks.pop() <= result.cycles

    # the aggregate idle count is exactly the per-core sum
    assert result.idle_cycles == sum(s.idle_cycles
                                     for s in result.core_stats)
    assert result.instructions == sum(s.instructions
                                      for s in result.core_stats)


def test_barrier_kernel_waits():
    build, local = _KERNELS["barrier"]
    _, result = _launch(build(), local)
    assert sum(s.barrier_waits for s in result.core_stats) > 0


# -- derived time ------------------------------------------------------------

def test_time_ms_linear_in_clock():
    result = LaunchResult(
        cycles=123_456, instructions=0, printf_output=[], core_stats=[],
        dram_row_hit_rate=0.0, dcache_hit_rate=0.0, lsu_stalls=0,
        idle_cycles=0, groups_dispatched=0,
    )
    assert result.time_ms(200.0) == pytest.approx(2 * result.time_ms(400.0))
    # product clock * time is invariant (pure cycles / clock)
    assert result.time_ms(100.0) * 100.0 == pytest.approx(
        result.time_ms(333.0) * 333.0)
    assert result.time_ms(200.0) == pytest.approx(123_456 / (200.0 * 1e3))


# -- skipped-cycle ranges (fast-forward) -------------------------------------
#
# The machine's main loop does not visit every cycle: all-stalled waits
# are booked in bulk and the clock jumps over them.
# The counter identities must be *lossless* under that regime — per-core
# accounting still covers the whole clock, and the profiler's
# cycle-bucket sampler still sums to the final totals even when entire
# buckets were jumped.

import os

from repro.profiling import Profiler
from repro.vortex.simx.machine import NO_FASTFORWARD_ENV


def _launch_ff(kernel, local, fast_forward, profiler=None):
    captured = {}
    backend = VortexBackend(
        CONFIG, profiler=profiler,
        launch_hook=lambda m, r: captured.update(machine=m, result=r))
    old = os.environ.get(NO_FASTFORWARD_ENV)
    os.environ[NO_FASTFORWARD_ENV] = "0" if fast_forward else "1"
    try:
        ctx = Context(backend)
        prog = ctx.program([kernel])
        args = [ctx.buffer(np.arange(64, dtype=np.int32))
                for _ in kernel.params]
        prog.launch(kernel.name, args, 64, local)
    finally:
        if old is None:
            del os.environ[NO_FASTFORWARD_ENV]
        else:
            os.environ[NO_FASTFORWARD_ENV] = old
    return captured["machine"], captured["result"]


@pytest.mark.parametrize("fast_forward", [True, False])
@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_every_cycle_booked_even_when_skipped(name, fast_forward):
    build, local = _KERNELS[name]
    _, result = _launch_ff(build(), local, fast_forward)
    # bulk-booked windows keep the per-core identity exact: every cycle
    # of the machine clock is either active or idle on every core
    for s in result.core_stats:
        assert s.cycles_active + s.idle_cycles == result.cycles
        # stall classifications are a partition of idle time
        assert s.lsu_stalls + s.scoreboard_stalls <= s.idle_cycles
    if not fast_forward:
        for key in ("ff_windows", "ff_cycles"):
            assert result.extra[key] == 0


def test_sampler_sums_are_lossless_under_fast_forward():
    build, local = _KERNELS["streaming"]
    prof = Profiler(cycle_bucket=32)
    machine, result = _launch_ff(build(), local, True, profiler=prof)
    skipped = result.extra["ff_cycles"]
    assert skipped > 0, "kernel never fast-forwarded; test is vacuous"

    per_core: dict[int, dict[str, float]] = {}
    skip_total = 0.0
    for ev in prof.events:
        if ev.ph != "C":
            continue
        if ev.name == "skipped cycles":
            skip_total += ev.args["cycles"]
        elif "issue/stall/idle" in ev.name:
            cid = int(ev.name.split()[0][len("core"):])
            acc = per_core.setdefault(
                cid, {"issue": 0.0, "lsu_stall": 0.0,
                      "scoreboard_stall": 0.0, "idle": 0.0})
            for k, v in ev.args.items():
                acc[k] += v

    # the skipped-cycles track surfaces exactly the jumped ranges
    assert skip_total == skipped
    # per-core bucket deltas sum to the final counters: nothing is lost
    # when the clock jumps across bucket boundaries
    for core, s in zip(machine.cores, result.core_stats):
        acc = per_core[core.cid]
        assert acc["issue"] == s.instructions
        assert acc["lsu_stall"] == s.lsu_stalls
        assert acc["scoreboard_stall"] == s.scoreboard_stalls
        assert acc["idle"] == s.idle_cycles - s.lsu_stalls \
            - s.scoreboard_stalls


def test_sampler_buckets_respect_noncontiguous_timestamps():
    """Sample timestamps must be monotonic and land at visited cycles
    even when whole buckets were jumped (edge-triggered sampling)."""
    build, local = _KERNELS["streaming"]
    prof = Profiler(cycle_bucket=16)
    _, result = _launch_ff(build(), local, True, profiler=prof)
    ts = [ev.ts for ev in prof.events if ev.ph == "C"]
    assert ts == sorted(ts)
    assert all(0 <= t <= result.cycles for t in ts)
