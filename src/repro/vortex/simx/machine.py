"""The whole simulated Vortex device: cores + shared DRAM + dispatcher.

The dispatcher models Vortex's work-group scheduling: work-groups are
assigned to cores as warp-sets (one group occupies ``ceil(local_items /
T)`` warps on one core and one *slot*, which selects its barrier id and
local-memory window). Warps halt when their kernel returns; freed warps
immediately receive the next pending group. Each core counts its free
warps (``Core.free_warps``), so a dispatch attempt on a full core costs
one compare.

The main loop keeps one wake-up horizon per core (``_due``): the
earliest cycle at which ticking the core can change anything, which
``Core.tick`` returns. After an issue it is the end of the issue window
(``Core.issue_busy_until``); after an idle tick it is
``Core.next_change_time``, the earliest cycle at which the core's stall
classification can change; a dispatch to the core pulls it to the next
cycle, but never inside a running issue window. Each iteration ticks
only the cores that are due, then moves the clock to the smallest
horizon. A core books each idle run once, at its stall class, when the
run ends (at its next tick or in ``Core.fold_counters``), and
``instructions``/``cycles_active`` are folded from the warps' issue
counts, so the counters are those of a cycle-by-cycle visit.
``skip_stats["ff_cycles"]`` counts the cycles the clock jumped over
because no core was due.

Set ``REPRO_SIMX_NO_FASTFORWARD=1`` for the per-cycle oracle: the clock
visits every cycle and ticks every idle core on each of them, whatever
its horizon (a core inside an issue window still waits for its end).
Cycle counts, every per-core, cache and DRAM counter, and results are
identical; only wall-clock and ``skip_stats`` differ, so comparing the
two checks the horizons, ``next_change_time`` included. The golden-trace
suite and ``tests/test_simx_fastforward.py`` pin this.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ...errors import (
    CheckpointError,
    RuntimeLaunchError,
    SimulationError,
    SimulationPreempted,
)
from ...ocl.ndrange import NDRange
from ...profiling import Profiler, ensure_profiler
from .. import layout
from ..codegen import VortexKernelImage
from ..isa import CSR
from . import checkpoint as _ckpt
from .config import VortexConfig
from .core import Core, CoreStats
from .decode import DecodedInstr, decode_program
from .dram import DRAM
from .mem import Memory
from .warp import BLOCKED

#: Environment variable selecting the per-cycle oracle loop.
NO_FASTFORWARD_ENV = "REPRO_SIMX_NO_FASTFORWARD"

#: The dispatcher's warp CSRs as plain ints: an ``int(CSR.X)`` per
#: dispatched warp costs more than the dict it fills.
(_GROUP_ID0, _GROUP_ID1, _GROUP_ID2, _LOCAL_OFFSET, _GROUP_SLOT,
 _GROUP_WARPS, _LOCAL_BASE) = (
    int(c) for c in (CSR.GROUP_ID0, CSR.GROUP_ID1, CSR.GROUP_ID2,
                     CSR.LOCAL_OFFSET, CSR.GROUP_SLOT, CSR.GROUP_WARPS,
                     CSR.LOCAL_BASE))

#: `describe_warp_states` renders at most this many warp lines before
#: truncating to a summary (huge (C, W) configs must not turn an
#: exception payload into megabytes of journal/PointFailure text).
WARP_DUMP_MAX = 32


#: The per-core counters a launch total sums over the cores, in the
#: order the launch's ``counters`` lists them.
_CORE_TOTALS = ("instructions", "simt_instructions", "cycles_active",
                "idle_cycles", "lsu_stalls", "lsu_replays",
                "scoreboard_stalls", "barrier_waits")


@dataclass
class LaunchResult:
    cycles: int
    instructions: int
    printf_output: list[str]
    core_stats: list[CoreStats]
    #: the launch's device-wide totals (see :meth:`Machine._fold_totals`).
    counters: dict[str, int]

    def time_ms(self, clock_mhz: float) -> float:
        return self.cycles / (clock_mhz * 1e3)


class Machine:
    def __init__(self, config: VortexConfig,
                 profiler: Profiler | None = None):
        self.config = config
        self.memory = Memory()
        self.dram = DRAM(config.dram, config.line_size)
        self.printf_output: list[str] = []
        #: profiling sink; the shared NULL_PROFILER when disabled, so the
        #: per-cycle guard is a single attribute test.
        self.profiler = ensure_profiler(profiler)
        #: dispatch cycle and group coordinates per in-flight group key.
        self._group_start: dict[int, tuple[int, tuple[int, int, int]]] = {}
        self.fast_forward = os.environ.get(NO_FASTFORWARD_ENV, "") in ("", "0")
        self.program = None
        #: the decoded program keyed by PC (shared with every core).
        self._code: dict[int, DecodedInstr] = {}
        #: cycles the main loop jumped over (reset per launch).
        self.skip_stats = {"ff_cycles": 0}
        self._group_remaining: dict[int, int] = {}
        self._group_slot: dict[int, tuple[int, int]] = {}  # key -> (core, slot)
        self._slot_free: list[list[bool]] = [
            [True] * config.warps for _ in range(config.cores)
        ]
        self._pending: list[tuple[int, int, int]] = []
        self._next_group_key = 0
        self._dispatch_cursor = 0
        self._image: VortexKernelImage | None = None
        self._groups_dispatched = 0
        self._active_warps = 0
        #: dispatch found no room on its last attempt; stays set until a
        #: warp halts (the only event that frees warps or slots).
        self._dispatch_blocked = False
        #: per-core wake-up horizon: the main loop ticks a core only once
        #: ``now`` reaches its entry (see the module docstring).
        self._due = [0] * config.cores
        #: per-(core, warp) stack-pointer rows: static, built on first
        #: dispatch.
        self._sp_rows: dict[tuple[int, int], np.ndarray] = {}
        # Cores last: Core.__init__ captures bound machine methods.
        self.cores = [Core(c, config, self) for c in range(config.cores)]

    # ------------------------------------------------------------------
    # Image loading.
    # ------------------------------------------------------------------

    def load_image(self, image: VortexKernelImage) -> None:
        self._image = image
        self.program = image.program
        self.memory.write_words(layout.CODE_BASE,
                                image.program.words.view(np.int32))
        for fmt, addr in image.fmt_table.items():
            raw = fmt.encode() + b"\x00"
            self.memory.write_bytes(addr, raw)
        # Decode every static instruction once; the issue stage looks
        # each dynamic instruction up by PC instead of re-decoding it.
        self._code = decode_program(image.program, self.config)
        for core in self.cores:
            core._code = self._code

    def fetch(self, pc: int) -> DecodedInstr:
        d = self._code.get(pc)
        if d is None:
            # Out-of-program PC: index_of_pc raises the canonical error.
            self.program.index_of_pc(pc)
        return d

    # ------------------------------------------------------------------
    # Launch.
    # ------------------------------------------------------------------

    def launch(self, ndrange: NDRange, max_cycles: int = 200_000_000,
               checkpoint=None) -> LaunchResult:
        """Run ``ndrange`` to completion on the loaded image and the
        marshalled arguments.

        With a :class:`~.checkpoint.CheckpointPlan` the launch writes
        its NDRange descriptor, the last host write of its identity
        (``memory.host_crc``), then asks the plan for this launch's
        snapshot. One that verifies is restored and the run continues
        from its cycle; otherwise (none, or refused and discarded by the
        plan) the launch starts fresh on this same machine, since
        verification mutates nothing. A completed launch discards its
        snapshot: a retry re-simulates it from scratch.
        """
        if self._image is None:
            raise RuntimeLaunchError("no kernel image loaded")
        cfg = self.config
        ipg = ndrange.items_per_group
        warps_needed = self._warps_per_group(ndrange)
        if warps_needed > cfg.warps:
            raise RuntimeLaunchError(
                f"work-group of {ipg} items needs {warps_needed} resident "
                f"warps (barrier kernel); the configuration has "
                f"{cfg.warps} per core"
            )
        # The NDRange descriptor the kernel's get_*_size queries read, and
        # the dispatch constants: warps per group, the kernel entry and
        # the lanes of items k*T.. that exist in each of a group's warps
        # (wave mode has one warp, k = 0: its first wave; the kernel's
        # own wave loop re-masks the later waves).
        self.memory.write_words(layout.NDR_BASE, np.array(
            list(ndrange.global_size) + list(ndrange.local_size)
            + list(ndrange.num_groups), dtype=np.int32))
        self._ndrange = ndrange
        self._warps_needed = warps_needed
        self._entry_pc = self.program.labels[self._image.kernel_name]
        T = cfg.threads
        lanes = np.arange(T)
        self._group_masks = [lanes < ipg - k * T
                             for k in range(warps_needed)]
        state = None
        if checkpoint is not None:
            if self.profiler.enabled:
                raise CheckpointError(
                    "checkpointing is incompatible with profiling "
                    "(sampler state is not snapshotted)"
                )
            state = checkpoint.begin_launch(self)
        if state is not None:
            now = int(state["now"])
            _ckpt.restore_state(self, state)
            checkpoint.note_resumed(now)
        else:
            now = 0
            self._pending = self._partition_groups(ndrange)
            self._groups_dispatched = 0
            self.printf_output.clear()
            self.skip_stats = {"ff_cycles": 0}
            for core in self.cores:
                core.free_warps = sum(not w.active for w in core.warps)
            self._active_warps = sum(cfg.warps - core.free_warps
                                     for core in self.cores)
            self._dispatch_blocked = False
            self._due = [0] * len(self.cores)
            if self.profiler.enabled:
                self._profile_prologue(ndrange)
            self._try_dispatch(0)
        result = self._run(now, max_cycles, checkpoint)
        if checkpoint is not None:
            checkpoint.store.discard(checkpoint.launch_id)
        return result

    def _run(self, now: int, max_cycles: int, ckpt=None) -> LaunchResult:
        """The main cycle loop, from ``now`` (0 for a fresh launch, the
        snapshot cycle for a resumed one) to completion."""
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            sampler = _BucketSampler(self, prof)
        total_groups = len(self._pending) + self._groups_dispatched
        skip = self.skip_stats

        ff = self.fast_forward
        cores = self.cores
        # _try_dispatch pops this list in place and writes ``due`` in
        # place, so both bindings are loop-invariant.
        pending = self._pending
        due = self._due
        run_start = now
        if ckpt is not None:
            ckpt_step = min(ckpt.every_cycles, _ckpt.CHECK_INTERVAL)
            next_ckpt = now + ckpt_step
            next_snap = now + ckpt.every_cycles
        else:
            # One always-false compare per iteration: the off path costs
            # nothing measurable (BENCH_simx.json pins this).
            next_ckpt = BLOCKED
        # Hoisted errstate: the decoded handlers run without a per-issue
        # context manager (float div-by-zero etc. must stay silent).
        with np.errstate(all="ignore"):
            while True:
                for i, core in enumerate(cores):
                    # The oracle ticks an idle core before its horizon.
                    if due[i] > now and (ff or now < core.issue_busy_until):
                        continue
                    due[i] = core.tick(now)
                if pending and not self._dispatch_blocked:
                    self._try_dispatch(now)
                if profiling:
                    sampler.maybe_sample(now)
                if not pending and self._active_warps == 0:
                    now += 1
                    break
                nxt = min(due)
                if nxt >= BLOCKED:
                    raise self._stuck_error(
                        "deadlock: all warps blocked (barrier mismatch?)",
                        now,
                    )
                if ff:
                    skip["ff_cycles"] += nxt - now - 1
                    now = nxt
                else:
                    now += 1
                if now > max_cycles:
                    raise self._stuck_error(
                        f"simulation exceeded {max_cycles} cycles", now
                    )
                if now >= next_ckpt:
                    # Coarse checkpoint boundary: the state here is
                    # exactly the loop-top state for cycle ``now``, so a
                    # snapshot taken now resumes byte-identically.
                    next_ckpt = now + ckpt_step
                    preempt = ckpt.due_preempt(now, run_start)
                    if preempt or now >= next_snap:
                        ckpt.save(self, now)
                        next_snap = now + ckpt.every_cycles
                    if preempt:
                        raise SimulationPreempted(ckpt.launch_id, now)

        for core in cores:
            core.fold_counters(now)
        counters = self._fold_totals(now, total_groups)
        if profiling:
            sampler.flush(now)
            prof.count_many(counters, prefix="simx.")
        return LaunchResult(
            cycles=now,
            instructions=counters["instructions"],
            printf_output=list(self.printf_output),
            core_stats=[c.stats for c in cores],
            counters=counters,
        )

    def _fold_totals(self, now: int, groups: int) -> dict[str, int]:
        """The finished launch's device-wide totals, the one place its
        counters are summed over the cores. The profiler books them
        under ``simx.``, ``LaunchStats.extra`` and the golden digests
        read them as they are."""
        totals = {"cycles": now, "groups_dispatched": groups}
        for name in _CORE_TOTALS:
            totals[name] = sum(getattr(c.stats, name) for c in self.cores)
        for name in ("accesses", "hits", "misses"):
            totals[f"dcache.{name}"] = sum(getattr(c.dcache.stats, name)
                                           for c in self.cores)
        for name in ("requests", "row_hits", "row_misses"):
            totals[f"dram.{name}"] = getattr(self.dram.stats, name)
        totals["skip.ff_cycles"] = self.skip_stats["ff_cycles"]
        return totals

    def describe_warp_states(self, now: int,
                             max_warps: int = WARP_DUMP_MAX) -> str:
        """Render every warp's state: core, warp id, PC, active mask,
        group key and why it is (not) making progress. Attached to the
        :class:`SimulationError` raised for a stuck machine, so a hung
        configuration inside a sweep is debuggable from the rendered
        error row alone — no re-run with tracing needed.

        Configurations with more than ``max_warps`` warps render the
        problem warps (barrier/blocked/stalled) first, capped at
        ``max_warps`` lines plus one summary line — the dump stays
        bounded no matter the (C, W) geometry."""
        entries: list[tuple[str, bool]] = []
        for core in self.cores:
            barrier_of = {wid: bar
                          for bar, wids in core.barriers.items()
                          for wid in wids}
            for warp in core.warps:
                problem = True
                if not warp.active:
                    status = "halted"
                    problem = False
                elif warp.at_barrier:
                    status = f"waiting at barrier {barrier_of.get(warp.wid, '?')}"
                elif warp.ready_at >= BLOCKED:
                    status = "blocked"
                elif warp.ready_at > now:
                    status = f"stalled until cycle {warp.ready_at}"
                else:
                    status = "ready"
                    problem = False
                entries.append((
                    f"  core {core.cid} warp {warp.wid}: "
                    f"pc={warp.pc:#06x} mask={warp.tmask_bits():#x} "
                    f"group={warp.group_key} {status}",
                    problem,
                ))
        if len(entries) <= max_warps:
            return "\n".join(line for line, _ in entries)
        problems = [line for line, p in entries if p]
        shown = problems[:max_warps]
        if len(shown) < max_warps:
            others = [line for line, p in entries if not p]
            shown.extend(others[:max_warps - len(shown)])
        total = len(entries)
        shown.append(
            f"  ... {total - max_warps} more warp(s) omitted "
            f"({len(problems)} problem of {total} total; "
            f"dump capped at {max_warps})"
        )
        return "\n".join(shown)

    def _stuck_error(self, headline: str, now: int) -> SimulationError:
        dump = self.describe_warp_states(now)
        exc = SimulationError(
            f"{headline}\nwarp states at cycle {now}:\n{dump}")
        exc.warp_dump = dump
        return exc

    # ------------------------------------------------------------------
    # Profiling.
    # ------------------------------------------------------------------

    def _profile_prologue(self, ndrange: NDRange) -> None:
        prof = self.profiler
        cfg = self.config
        prof.set_meta("backend", "simx")
        prof.set_meta("config", cfg.label())
        prof.set_meta("global_size", tuple(ndrange.global_size))
        prof.set_meta("local_size", tuple(ndrange.local_size))
        prof.set_meta("timeline", "cycles")
        prof.name_process(_DEVICE_PID, "device (DRAM + dispatch)")
        for core in self.cores:
            pid = _core_pid(core.cid)
            prof.name_process(pid, f"core {core.cid}")
            for slot in range(cfg.warps):
                prof.name_thread(pid, slot, f"slot {slot} (work-groups)")
        self._group_start.clear()

    def _profile_dispatch(self, now: int, key: int,
                          group: tuple[int, int, int], core: Core,
                          slot: int, warps_needed: int) -> None:
        self._group_start[key] = (now, group)
        self.profiler.instant(
            f"dispatch {group}", "simx.dispatch", ts=now,
            pid=_core_pid(core.cid), tid=slot,
            args={"group": list(group), "warps": warps_needed},
        )

    def _profile_group_done(self, now: int, key: int, cid: int,
                            slot: int) -> None:
        start = self._group_start.pop(key, None)
        if start is None:
            return
        ts, group = start
        self.profiler.complete(
            f"group {group}", "simx.group", ts=ts, dur=max(1, now - ts),
            pid=_core_pid(cid), tid=slot,
        )

    # ------------------------------------------------------------------
    # Work-group dispatch.
    # ------------------------------------------------------------------

    def _warps_per_group(self, ndrange: NDRange) -> int:
        """1 in wave mode (a warp sweeps its group in waves of T lanes);
        ceil(items/T) for barrier kernels (warp-set dispatch)."""
        if self._image is not None and self._image.wave_mode:
            return 1
        return max(1, -(-ndrange.items_per_group // self.config.threads))

    def _partition_groups(self, ndrange: NDRange) -> list:
        """Static chunked partitioning, as Vortex's ``vx_spawn`` does:
        each warp-set slot owns a *contiguous* range of work-groups, so
        concurrent slots stream through distant address regions. The
        pending list is ordered so that popping round-robin hands every
        slot the next group of its own chunk."""
        groups = list(ndrange.groups())
        cfg = self.config
        if not cfg.chunked_dispatch:
            return groups  # interleaved round-robin hand-out
        warps_needed = self._warps_per_group(ndrange)
        slots_total = max(1, (cfg.warps // warps_needed) * cfg.cores)
        nchunks = min(slots_total, len(groups))
        if nchunks <= 1:
            return groups
        chunk = -(-len(groups) // nchunks)
        chunks = [groups[i * chunk: (i + 1) * chunk]
                  for i in range(nchunks)]
        interleaved: list = []
        for depth in range(chunk):
            for ch in chunks:
                if depth < len(ch):
                    interleaved.append(ch[depth])
        return interleaved

    def _try_dispatch(self, now: int) -> None:
        cfg = self.config
        need = self._warps_needed
        pending = self._pending
        ncores = cfg.cores
        stuck = 0
        while pending and stuck < ncores:
            core = self.cores[self._dispatch_cursor % ncores]
            self._dispatch_cursor += 1
            # Room for ``need`` warps implies a free slot: every held
            # slot's group still runs one of the core's other warps.
            if core.free_warps < need:
                stuck += 1
                continue
            stuck = 0
            group = pending.pop(0)
            slots = self._slot_free[core.cid]
            slot = slots.index(True)
            slots[slot] = False
            key = self._next_group_key
            self._next_group_key += 1
            self._group_remaining[key] = need
            self._group_slot[key] = (core.cid, slot)
            if self.profiler.enabled:
                self._profile_dispatch(now, key, group, core, slot, need)
            csrs = {_GROUP_ID0: group[0], _GROUP_ID1: group[1],
                    _GROUP_ID2: group[2], _GROUP_SLOT: slot,
                    _GROUP_WARPS: need,
                    _LOCAL_BASE: layout.local_window(core.cid, slot,
                                                     cfg.warps)}
            free = (w for w in core.warps if not w.active)
            for k, mask in enumerate(self._group_masks):
                warp = next(free)
                csrs[_LOCAL_OFFSET] = k * cfg.threads
                sp = self._sp_rows.get((core.cid, warp.wid))
                if sp is None:
                    first = (core.cid * cfg.warps + warp.wid) * cfg.threads
                    sp = np.array([layout.stack_top(first + lane)
                                   for lane in range(cfg.threads)],
                                  dtype=np.int32)
                    self._sp_rows[core.cid, warp.wid] = sp
                warp.reset_for_group(self._entry_pc, mask, csrs, sp)
                warp.ready_at = now + 1
                warp.group_key = key
            core.free_warps -= need
            self._active_warps += need
            self._groups_dispatched += 1
            # New warps wake the core next cycle, after any issue window.
            self._due[core.cid] = max(now + 1, core.issue_busy_until)
        # Loop exited either because nothing is pending or because a
        # full scan found no room; in the latter case skip further
        # attempts until a warp halts (nothing else frees capacity).
        self._dispatch_blocked = bool(pending)

    def on_warp_halt(self, core: Core, warp, now: int = 0) -> None:
        self._active_warps -= 1
        core.free_warps += 1
        self._dispatch_blocked = False
        key = warp.group_key
        if key is None:
            return
        self._group_remaining[key] -= 1
        if self._group_remaining[key] == 0:
            cid, slot = self._group_slot.pop(key)
            self._slot_free[cid][slot] = True
            del self._group_remaining[key]
            if self.profiler.enabled:
                self._profile_group_done(now, key, cid, slot)
        warp.group_key = None

    def on_warp_spawn(self, core: Core, warp, now: int = 0) -> None:
        self._active_warps += 1
        core.free_warps -= 1


_DEVICE_PID = 0


def _core_pid(cid: int) -> int:
    """Chrome-trace process id for one core (0 is the device process)."""
    return cid + 1


class _BucketSampler:
    """Emits per-cycle-bucket issue/stall/idle breakdowns per core plus
    cache/DRAM counter snapshots as Chrome counter tracks.

    The machine's main loop moves the clock from one core horizon to the
    next, so sampling is edge-triggered: whenever ``now`` crosses the
    next bucket boundary the counters are folded and the delta since the
    previous sample is emitted, stamped at the current cycle. Cycles the
    clock jumped over because no core was due surface as a device-track
    "skipped cycles" counter, so a sparse region of the timeline is
    distinguishable from a quiet one.
    """

    __slots__ = ("machine", "prof", "bucket", "next_ts", "core_prev",
                 "dram_prev", "skip_prev")

    def __init__(self, machine: Machine, prof: Profiler):
        self.machine = machine
        self.prof = prof
        self.bucket = prof.cycle_bucket
        self.next_ts = self.bucket
        self.core_prev = [self._core_snapshot(c) for c in machine.cores]
        self.dram_prev = (0, 0)
        self.skip_prev = 0

    @staticmethod
    def _core_snapshot(core: Core) -> tuple[int, int, int, int, int, int]:
        s = core.stats
        # The issue track counts issue slots, replayed loads included,
        # so issue, stall and idle cover every cycle of the core.
        return (s.instructions + s.lsu_replays, s.cycles_active,
                s.idle_cycles, s.lsu_stalls, s.scoreboard_stalls,
                core.dcache.stats.hits + core.dcache.stats.misses)

    def maybe_sample(self, now: int) -> None:
        if now >= self.next_ts:
            # Cycle ``now`` has been stepped: fold as of the next one.
            for core in self.machine.cores:
                core.fold_counters(now + 1)
            self._emit(now)
            self.next_ts = now - now % self.bucket + self.bucket

    def flush(self, now: int) -> None:
        """Emit the last bucket (the launch end has folded the counters
        as of ``now``)."""
        self._emit(now)

    def _emit(self, now: int) -> None:
        prof = self.prof
        for core in self.machine.cores:
            snap = self._core_snapshot(core)
            prev = self.core_prev[core.cid]
            issued, active, idle, lsu, sb, dacc = (
                a - b for a, b in zip(snap, prev))
            self.core_prev[core.cid] = snap
            if active or idle:
                prof.sample(
                    f"core{core.cid} issue/stall/idle", ts=now,
                    values={"issue": issued, "lsu_stall": lsu,
                            "scoreboard_stall": sb,
                            "idle": max(0, idle - lsu - sb)},
                    pid=_core_pid(core.cid),
                )
            if dacc:
                prof.sample(
                    f"core{core.cid} dcache accesses", ts=now,
                    values={"accesses": dacc}, pid=_core_pid(core.cid),
                )
        dstats = self.machine.dram.stats
        dsnap = (dstats.requests, dstats.row_hits)
        dreq = dsnap[0] - self.dram_prev[0]
        if dreq:
            prof.sample(
                "dram requests", ts=now,
                values={"requests": dreq,
                        "row_hits": dsnap[1] - self.dram_prev[1]},
                pid=_DEVICE_PID,
            )
        self.dram_prev = dsnap
        skipped = self.machine.skip_stats["ff_cycles"]
        if skipped != self.skip_prev:
            prof.sample(
                "skipped cycles", ts=now,
                values={"cycles": skipped - self.skip_prev},
                pid=_DEVICE_PID,
            )
            self.skip_prev = skipped
