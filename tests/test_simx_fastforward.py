"""Fast-forward correctness: jumping the cycle counter must be purely a
wall-clock optimization.

The machine's main loop ticks a core only at its wake-up horizon (the
end of its issue window, or the earliest cycle its stall class can
change), jumps the clock to the smallest horizon, and books each idle
run once when it ends. These tests pin the contract: with
``REPRO_SIMX_NO_FASTFORWARD=1`` the simulator visits every cycle and
ticks every idle core on each of them, and everything observable (cycle
counts, per-core counter sets, ``CacheStats``, DRAM counters, device
results) is identical to the fast-forwarded run. A fast-forwarded
machine must also still be subject to the experiment engine's
``point_timeout`` watchdog — cycle jumps cannot smuggle a runaway point
past the wall-clock limit.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.errors import PointFailure
from repro.harness.engine import ExperimentEngine
from repro.ocl import Context, GLOBAL_INT32, INT32, KernelBuilder
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.simx.core import Core
from repro.vortex.simx.machine import NO_FASTFORWARD_ENV, Machine

CONFIG = VortexConfig(cores=2, warps=4, threads=8)
#: one LSU queue entry: warps queue behind each other's memory ops.
LSU_BOUND = VortexConfig(cores=2, warps=4, threads=8, lsu_queue_depth=1)
N = 64


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
    lmem = b.local_array("lmem", INT32, 16)
    gid = b.global_id(0)
    lid = b.local_id(0)
    b.store(lmem, lid, gid)
    b.barrier()
    b.store(dst, gid, b.load(lmem, b.rem(b.add(lid, 5), b.const(16))))
    return b.finish()


def _divergent_kernel():
    b = KernelBuilder("div")
    dst = b.param("dst", GLOBAL_INT32)
    gid = b.global_id(0)
    v = b.var("v", INT32)
    v.set(b.const(0))
    with b.if_else(b.lt(b.rem(gid, b.const(3)), b.const(1))) as (t, e):
        with t:
            v.set(b.mul(gid, gid))
        with e:
            v.set(b.sub(b.const(0), gid))
    b.store(dst, gid, v.get())
    return b.finish()


def _div_store_kernel():
    # A warp waits on the scoreboard for the 16-cycle ``div`` of its
    # load, then on the LSU queue for its store, which other warps'
    # loads hold: its stall class changes before it can issue.
    b = KernelBuilder("divstore")
    src = b.param("src", GLOBAL_INT32)
    dst = b.param("dst", GLOBAL_INT32)
    gid = b.global_id(0)
    b.store(dst, gid, b.div(b.load(src, gid), b.const(7)))
    return b.finish()


#: name -> (kernel builder, local size, configuration)
_KERNELS = {
    "streaming": (_streaming_kernel, 16, CONFIG),
    "barrier": (_barrier_kernel, 16, CONFIG),
    "divergent": (_divergent_kernel, 16, CONFIG),
    "divstore": (_div_store_kernel, 16, LSU_BOUND),
}


def _run(build, local, config, fast_forward: bool):
    captured = {}
    backend = VortexBackend(
        config,
        launch_hook=lambda m, r: captured.update(machine=m, result=r))
    old = os.environ.get(NO_FASTFORWARD_ENV)
    os.environ[NO_FASTFORWARD_ENV] = "0" if fast_forward else "1"
    try:
        kernel = build()
        ctx = Context(backend)
        prog = ctx.program([kernel])
        args = [ctx.buffer(np.arange(N, dtype=np.int32))
                for _ in kernel.params]
        prog.launch(kernel.name, args, N, local)
        outs = [a.read().copy() for a in args]
    finally:
        if old is None:
            del os.environ[NO_FASTFORWARD_ENV]
        else:
            os.environ[NO_FASTFORWARD_ENV] = old
    return captured["machine"], captured["result"], outs


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_ff_on_off_identical(name):
    build, local, config = _KERNELS[name]
    ff_machine, ff_result, ff_outs = _run(build, local, config,
                                          fast_forward=True)
    sl_machine, sl_result, sl_outs = _run(build, local, config,
                                          fast_forward=False)

    assert ff_result.cycles == sl_result.cycles
    assert ff_result.instructions == sl_result.instructions
    # every launch total but the cycles the loop jumped, of which the
    # oracle has none
    ff_totals, sl_totals = dict(ff_result.counters), dict(sl_result.counters)
    del ff_totals["skip.ff_cycles"]
    assert sl_totals.pop("skip.ff_cycles") == 0
    assert ff_totals == sl_totals

    # every per-core counter, not just the aggregates
    for fs, ss in zip(ff_result.core_stats, sl_result.core_stats):
        assert dataclasses.asdict(fs) == dataclasses.asdict(ss)

    # CacheStats and DRAM counters field by field
    for fc, sc in zip(ff_machine.cores, sl_machine.cores):
        assert dataclasses.asdict(fc.dcache.stats) == \
            dataclasses.asdict(sc.dcache.stats)
    assert dataclasses.asdict(ff_machine.dram.stats) == \
        dataclasses.asdict(sl_machine.dram.stats)

    # device-visible results
    for f, s in zip(ff_outs, sl_outs):
        np.testing.assert_array_equal(f, s)

    # idle runs are booked once when they end, so each core accounts
    # for every cycle of the machine clock in either mode
    for result in (ff_result, sl_result):
        for s in result.core_stats:
            assert s.cycles_active + s.idle_cycles == result.cycles


def test_streaming_kernel_actually_fast_forwards():
    """Guard against the FF path silently never engaging (in which case
    test_ff_on_off_identical would pass vacuously)."""
    _, result, _ = _run(*_KERNELS["streaming"], fast_forward=True)
    assert result.counters["skip.ff_cycles"] > 0


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_oracle_ticks_every_idle_cycle(name, monkeypatch):
    """The per-cycle oracle ticks each core once per issue (retired or
    replayed) and once per idle cycle, so its counters never rest on a
    wake-up horizon."""
    ticks: dict[int, int] = {}
    tick = Core.tick

    def counting_tick(core, now):
        ticks[core.cid] = ticks.get(core.cid, 0) + 1
        return tick(core, now)

    monkeypatch.setattr(Core, "tick", counting_tick)
    _, result, _ = _run(*_KERNELS[name], fast_forward=False)
    for cid, s in enumerate(result.core_stats):
        assert ticks.get(cid, 0) == (s.instructions + s.lsu_replays
                                     + s.idle_cycles)


def test_env_flag_controls_fast_forward(monkeypatch):
    monkeypatch.delenv(NO_FASTFORWARD_ENV, raising=False)
    assert Machine(CONFIG).fast_forward is True
    monkeypatch.setenv(NO_FASTFORWARD_ENV, "1")
    assert Machine(CONFIG).fast_forward is False


# -- watchdog interaction ----------------------------------------------------


def _short_sim_point(tag):
    kernel = _streaming_kernel()
    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    src = ctx.buffer(np.arange(N, dtype=np.int32))
    dst = ctx.alloc(N, np.int32)
    prog.launch("stream", [src, dst], N, 16)
    return tag


def _endless_sim_point(tag):
    # Thousands of back-to-back launches: minutes of wall clock even
    # with fast-forwarding on. Only the watchdog ends this point.
    kernel = _streaming_kernel()
    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    for _ in range(200_000):
        src = ctx.buffer(np.arange(N, dtype=np.int32))
        dst = ctx.alloc(N, np.int32)
        prog.launch("stream", [src, dst], N, 16)
    return tag


def test_fast_forwarded_machine_honors_point_timeout():
    assert os.environ.get(NO_FASTFORWARD_ENV, "") in ("", "0")
    started = time.monotonic()
    with ExperimentEngine(jobs=2, point_timeout=2.0,
                          keep_going=True) as engine:
        results = engine.run(_short_sim_point, [(1,)])
        assert results == [1]
        results = engine.run(_endless_sim_point, [(2,)])
    assert isinstance(results[0], PointFailure)
    assert results[0].exc_type == "PointTimeout"
    # the watchdog cancelled the runaway simulation promptly
    assert time.monotonic() - started < 60
