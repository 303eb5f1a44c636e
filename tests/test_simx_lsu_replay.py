"""A load that full MSHRs turn away costs only its issue slot.

SimX replays a load whose missing lanes find too few free MSHR entries
(``Core._exec_load``). The replay is an issue attempt, not retired work:

* ``instructions`` counts retired warp instructions, so it does not
  depend on timing. Configurations that change only timing (MSHR count,
  DRAM model, LSU queue depth) retire the same instructions per launch
  while their replays differ.
* A rejected attempt books nothing in the D-cache: no access, no hit or
  miss, no LRU refresh.
* Until an MSHR is released, a rejected load's replay is turned away
  without probing (``Core._mshr_epoch``). The check below runs the full
  timing probe at each such replay: it must also turn the load away and
  book nothing.
"""

from dataclasses import replace

import pytest

from repro.benchmarks.suite import all_benchmarks, run_benchmark
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.simx.core import Core
from repro.vortex.simx.machine import Machine

BENCHMARKS = [b.name for b in all_benchmarks()]

SMALL = VortexConfig(cores=2, warps=4, threads=4)

#: configurations of SMALL that differ from it only in timing.
TIMING_VARIANTS = {
    "default": SMALL,
    "mshrs=2": replace(SMALL, mshrs=2),
    "mshrs=4096": replace(SMALL, mshrs=4096),
    "hbm": SMALL.hbm(),
    "lsu_queue_depth=1": replace(SMALL, lsu_queue_depth=1),
}


def _launch_counters(bench: str, config: VortexConfig) -> list[dict]:
    counters: list[dict] = []
    backend = VortexBackend(
        config, launch_hook=lambda machine, result: counters.append(
            result.counters))
    result = run_benchmark(bench, backend)
    assert result.ok, f"{bench} on {config.label()}: {result.status}"
    return counters


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_retired_instructions_do_not_depend_on_timing(bench):
    runs = {name: _launch_counters(bench, config)
            for name, config in TIMING_VARIANTS.items()}
    retired = {name: [c["instructions"] for c in launches]
               for name, launches in runs.items()}
    assert all(r == retired["default"] for r in retired.values()), retired
    # The variants do change timing: issue slots (retired instructions
    # plus replays) differ between them.
    slots = {sum(c["instructions"] + c["lsu_replays"] for c in launches)
             for launches in runs.values()}
    assert len(slots) > 1, (bench, slots)


def _lsu_state(core: Core, items: list[tuple[int, int]]) -> tuple:
    """What a load's timing probe could book: the D-cache's counters,
    clock and the sets of the load's lines, the MSHRs and DRAM
    requests."""
    dc = core.dcache
    s = dc.stats
    sets = sorted({ln % dc.sets for ln, _ in items})
    return (s.accesses, s.hits, s.misses, dc._tick,
            [(list(dc.tags[i]), list(dc.lru[i])) for i in sets],
            dict(core.mshrs), list(core.mshr_entries),
            core._mshr_occupancy, core._purge_at,
            core.machine.dram.stats.requests)


@pytest.mark.parametrize("config", [
    SMALL, replace(SMALL, mshrs=2),
    VortexConfig(), replace(VortexConfig(), mshrs=2),
], ids=["2c4w4t", "2c4w4t-mshrs2", "4c8w8t", "4c8w8t-mshrs2"])
def test_replay_rejected_by_epoch_is_rejected_by_full_probe(config,
                                                            monkeypatch):
    checks = 0
    exec_load = Core._exec_load

    def checked(core, warp, d, now):
        nonlocal checks
        memo = warp._lsu_replay
        if memo is not None and memo[0] == warp._iseq - 1 \
                and memo[1] == warp.pc and memo[2] == core._mshr_epoch:
            _, _, _, addrs, items = memo
            before = _lsu_state(core, items)
            completion = core._lsu_load_timing(items, len(addrs), now)
            # Raised at once: a wrongly rejected load may never retire.
            assert completion is None, (core.cid, warp.wid, now)
            assert _lsu_state(core, items) == before, (core.cid, warp.wid,
                                                       now)
            checks += 1
        exec_load(core, warp, d, now)

    # Decode binds the handler, so patch before any program loads.
    monkeypatch.setattr(Core, "_exec_load", checked)
    for bench in BENCHMARKS:
        result = run_benchmark(bench, VortexBackend(config))
        assert result.ok, f"{bench} on {config.label()}: {result.status}"
    assert checks > 0, "no replay took the epoch path; test is vacuous"


def test_rejected_load_leaves_the_dcache_untouched():
    config = VortexConfig(cores=1, warps=2, threads=2, mshrs=2)
    core = Machine(config).cores[0]
    dc = core.dcache
    ls = config.line_size
    hit, held, missed = 0, 64 * ls, 128 * ls
    dc.fill(hit)
    # Two lanes miss on ``held``: both MSHR entries are taken.
    assert core._lsu_load_timing([(held // ls, 2)], 2, 0) is not None
    assert core._mshr_occupancy == config.mshrs
    before = (dc.stats.accesses, dc.stats.hits, dc.stats.misses, dc._tick,
              [list(r) for r in dc.tags], [list(r) for r in dc.lru])
    # A resident line and a missing one: the miss finds no free entry.
    items = [(hit // ls, 1), (missed // ls, 1)]
    assert core._lsu_load_timing(items, 2, 1) is None
    assert (dc.stats.accesses, dc.stats.hits, dc.stats.misses, dc._tick,
            [list(r) for r in dc.tags],
            [list(r) for r in dc.lru]) == before
    # Once the fill returns, the same load is accepted and books one
    # lookup per line: a hit and a miss.
    now = core.mshrs[held]
    core._purge(now)
    assert core._lsu_load_timing(items, 2, now) is not None
    assert (dc.stats.accesses, dc.stats.hits, dc.stats.misses) == (
        before[0] + 2, before[1] + 1, before[2] + 1)
