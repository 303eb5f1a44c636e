"""The whole simulated Vortex device: cores + shared DRAM + dispatcher.

The dispatcher models Vortex's work-group scheduling: work-groups are
assigned to cores as warp-sets (one group occupies ``ceil(local_items /
T)`` warps on one core and one *slot*, which selects its barrier id and
local-memory window). Warps halt when their kernel returns; freed warps
immediately receive the next pending group.

The main loop steps one cycle at a time while some core issues or is
inside a multi-beat issue window. Within a step a core is only ticked
when its outcome can change: cycles inside a known busy window are
booked active, and an idle core stays frozen at its last stall
classification until ``Core.next_change_time``.

When no core issued and none is mid-issue, the **all-stalled jump**
moves the clock straight to the earliest scoreboard/LSU completion
(``Core.next_event_time``). Nothing changes before then, so each
core's idle and stall counters are booked for the whole window at once
and stay identical to a cycle-by-cycle visit. ``skip_stats`` counts
the jumps (``ff_windows``) and the cycles they skipped (``ff_cycles``).

Set ``REPRO_SIMX_NO_FASTFORWARD=1`` to visit every cycle instead. Cycle
counts, every per-core, cache and DRAM counter, and results are
identical; only wall-clock and ``skip_stats`` differ. The golden-trace
suite and ``tests/test_simx_fastforward.py`` pin this.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

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
from .checkpoint import CHECK_INTERVAL as _CKPT_CHECK_INTERVAL
from .config import VortexConfig
from .core import Core, CoreStats, STALL_LSU, STALL_SCOREBOARD
from .decode import DecodedInstr, decode_program
from .dram import DRAM
from .mem import Memory
from .warp import BLOCKED

#: Environment variable disabling the all-stalled jump.
NO_FASTFORWARD_ENV = "REPRO_SIMX_NO_FASTFORWARD"

#: `describe_warp_states` renders at most this many warp lines before
#: truncating to a summary (huge (C, W) configs must not turn an
#: exception payload into megabytes of journal/PointFailure text).
WARP_DUMP_MAX = 32


@dataclass
class LaunchResult:
    cycles: int
    instructions: int
    printf_output: list[str]
    core_stats: list[CoreStats]
    dram_row_hit_rate: float
    dcache_hit_rate: float
    lsu_stalls: int
    idle_cycles: int
    groups_dispatched: int
    extra: dict[str, Any] = field(default_factory=dict)

    def time_ms(self, clock_mhz: float) -> float:
        return self.cycles / (clock_mhz * 1e3)


def _fresh_skip_stats() -> dict[str, int]:
    return {"ff_windows": 0, "ff_cycles": 0}


class Machine:
    def __init__(self, config: VortexConfig, trace: bool = False,
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
        #: optional execution trace: (cycle, core, warp, pc, disasm, tmask)
        #: per issued instruction. Enable only for debugging — it grows
        #: with every instruction executed.
        self.trace: list[tuple[int, int, int, int, str, int]] | None = (
            [] if trace else None
        )
        self.fast_forward = os.environ.get(NO_FASTFORWARD_ENV, "") in ("", "0")
        self.program = None
        self._decoded: list[DecodedInstr] = []
        self._code_base = layout.CODE_BASE
        #: all-stalled jumps and the cycles they skipped (reset per
        #: launch).
        self.skip_stats = _fresh_skip_stats()
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
        #: per-core idle-freeze horizon: while ``now`` is below a core's
        #: entry its tick outcome is provably unchanged (see
        #: ``Core.next_change_time``), so the main loop books the frozen
        #: classification directly instead of re-scanning the core.
        #: Dispatching to a core clears its entry.
        self._frozen_until = [0] * config.cores
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
        # Decode every static instruction once; the issue stage indexes
        # this list instead of re-decoding per dynamic instruction.
        self._decoded = decode_program(image.program, self.config)
        self._code_base = image.program.code_base
        for core in self.cores:
            core._decoded = self._decoded
            core._code_base = self._code_base

    def fetch(self, pc: int) -> DecodedInstr:
        idx = pc - self._code_base
        if not idx & 3:
            idx >>= 2
            if 0 <= idx < len(self._decoded):
                return self._decoded[idx]
        # Out-of-program PC: index_of_pc raises the canonical error.
        return self._decoded[self.program.index_of_pc(pc)]

    # ------------------------------------------------------------------
    # Launch.
    # ------------------------------------------------------------------

    def launch(self, ndrange: NDRange, max_cycles: int = 200_000_000,
               checkpoint=None) -> LaunchResult:
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
        # NDRange descriptor for get_*_size queries done via memory.
        ndr_words = np.array(
            list(ndrange.global_size) + list(ndrange.local_size)
            + list(ndrange.num_groups),
            dtype=np.int32,
        )
        self.memory.write_words(layout.NDR_BASE, ndr_words)

        self._pending = self._partition_groups(ndrange)
        self._ndrange = ndrange
        self._groups_dispatched = 0
        self.printf_output.clear()
        self.skip_stats = _fresh_skip_stats()
        self._active_warps = sum(
            1 for core in self.cores for w in core.warps if w.active
        )
        self._dispatch_blocked = False
        for i in range(len(self._frozen_until)):
            self._frozen_until[i] = 0
        if self.profiler.enabled:
            self._profile_prologue(ndrange)
        if checkpoint is not None:
            self._arm_checkpoint(checkpoint)
        self._try_dispatch(0)
        return self._run(0, max_cycles, checkpoint)

    def resume(self, ndrange: NDRange, state: dict,
               max_cycles: int = 200_000_000,
               checkpoint=None) -> LaunchResult:
        """Restore a verified snapshot and continue to completion.

        The machine must be assembled exactly as for :meth:`launch` —
        image loaded, kernel arguments marshalled — so its memory holds
        the deterministic baseline the snapshot's delta was taken
        against. Every precondition (config label, ndrange, program
        fingerprint, memory baseline) is verified *before* any
        mutation; on :class:`CheckpointError` the caller can fall back
        to a clean :meth:`launch` on a fresh machine.
        """
        from .checkpoint import restore_state, verify_resume

        if self._image is None:
            raise RuntimeLaunchError("no kernel image loaded")
        if self.profiler.enabled or self.trace is not None:
            raise CheckpointError(
                "cannot resume a snapshot with profiling or tracing "
                "enabled (their state is not snapshotted)"
            )
        ndr_words = np.array(
            list(ndrange.global_size) + list(ndrange.local_size)
            + list(ndrange.num_groups),
            dtype=np.int32,
        )
        self.memory.write_words(layout.NDR_BASE, ndr_words)
        verify_resume(self, ndrange, state)
        self._ndrange = ndrange
        # The pre-restore memory *is* the baseline for further deltas.
        self._ckpt_baseline = self.memory.data.copy()
        self._ckpt_baseline_digest = state["baseline_digest"]
        self._ckpt_program_sha = state["program_sha"]
        restore_state(self, state)
        if checkpoint is not None:
            checkpoint.note_resumed(int(state["now"]))
        return self._run(int(state["now"]), max_cycles, checkpoint)

    def _arm_checkpoint(self, ckpt) -> None:
        """Record the post-marshal baselines snapshots delta against."""
        from .checkpoint import baseline_digest, program_fingerprint

        if self.profiler.enabled or self.trace is not None:
            raise CheckpointError(
                "checkpointing is incompatible with profiling or "
                "tracing (sampler and trace state are not snapshotted)"
            )
        self._ckpt_baseline = self.memory.data.copy()
        self._ckpt_baseline_digest = baseline_digest(self._ckpt_baseline)
        self._ckpt_program_sha = program_fingerprint(self._image,
                                                     self.config)

    def _run(self, now: int, max_cycles: int, ckpt=None) -> LaunchResult:
        """The main cycle loop, from ``now`` (0 for a fresh launch, the
        snapshot cycle for a resume) to completion."""
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            sampler = _BucketSampler(self, prof)
        total_groups = len(self._pending) + self._groups_dispatched
        skip = self.skip_stats

        ff = self.fast_forward
        cores = self.cores
        # _try_dispatch pops this list in place, so the binding is
        # loop-invariant even as its contents drain.
        pending = self._pending
        frozen_until = self._frozen_until
        # Known multi-beat busy windows: while ``now`` is inside one the
        # issue stage cannot change state, so the loop books the busy
        # cycle directly instead of calling tick. (Deferring the lazy
        # LSU purge is safe — its state is only read at issue time.)
        # ``busy_until[i]`` tracks ``core.issue_busy_until`` exactly
        # (both start at 0 and only an issuing tick moves either),
        # which is what lets a restored snapshot rebuild it here.
        busy_until = [core.issue_busy_until for core in cores]
        run_start = now
        if ckpt is not None:
            ckpt_step = min(ckpt.every_cycles, _CKPT_CHECK_INTERVAL)
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
                # Some core issued this cycle or is mid-issue.
                active = False
                for i, core in enumerate(cores):
                    if now < busy_until[i]:
                        core.stats.cycles_active += 1
                        active = True
                        continue
                    if now < frozen_until[i]:
                        # Frozen idle: book the cached classification
                        # without re-scanning the warp set.
                        stats = core.stats
                        stats.idle_cycles += 1
                        st = core._stall
                        if st == STALL_LSU:
                            stats.lsu_stalls += 1
                        elif st == STALL_SCOREBOARD:
                            stats.scoreboard_stalls += 1
                        continue
                    if core.tick(now):
                        active = True
                        busy_until[i] = core.issue_busy_until
                    else:
                        frozen_until[i] = core.next_change_time(now)
                if pending and not self._dispatch_blocked:
                    self._try_dispatch(now)
                if profiling:
                    sampler.maybe_sample(now)
                if not pending and self._active_warps == 0:
                    now += 1
                    break
                if active:
                    now += 1
                else:
                    nxt = min(core.next_event_time(now) for core in cores)
                    if nxt >= BLOCKED:
                        raise self._stuck_error(
                            "deadlock: all warps blocked "
                            "(barrier mismatch?)",
                            now,
                        )
                    if ff:
                        jumped = max(now + 1, nxt)
                        k = jumped - now - 1
                        if k > 0:
                            # Nothing changes before ``nxt`` (it is the
                            # min over every pending threshold), so each
                            # core would re-derive the same idle/stall
                            # classification on every skipped cycle —
                            # book the whole window at once to keep the
                            # counters identical to a full visit.
                            for core in cores:
                                stats = core.stats
                                stats.idle_cycles += k
                                if core._stall == STALL_LSU:
                                    stats.lsu_stalls += k
                                elif core._stall == STALL_SCOREBOARD:
                                    stats.scoreboard_stalls += k
                            skip["ff_windows"] += 1
                            skip["ff_cycles"] += k
                        now = jumped
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

        if profiling:
            sampler.flush(now)
            self._profile_epilogue(now, total_groups)
        hits = sum(c.dcache.stats.hits for c in self.cores)
        misses = sum(c.dcache.stats.misses for c in self.cores)
        return LaunchResult(
            cycles=now,
            instructions=sum(c.stats.instructions for c in self.cores),
            printf_output=list(self.printf_output),
            core_stats=[c.stats for c in self.cores],
            dram_row_hit_rate=self.dram.stats.row_hit_rate,
            dcache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            lsu_stalls=sum(c.stats.lsu_stalls + c.stats.lsu_replays
                           for c in self.cores),
            idle_cycles=sum(c.stats.idle_cycles for c in self.cores),
            groups_dispatched=total_groups,
            extra={
                "lsu_replays": sum(c.stats.lsu_replays for c in self.cores),
                "ff_windows": skip["ff_windows"],
                "ff_cycles": skip["ff_cycles"],
            },
        )

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

    def _profile_epilogue(self, now: int, total_groups: int) -> None:
        """Fold the end-of-launch counters into the profiler."""
        prof = self.profiler
        skip = self.skip_stats
        totals = {
            "cycles": now,
            "groups_dispatched": total_groups,
            "instructions": sum(c.stats.instructions for c in self.cores),
            "simt_instructions": sum(c.stats.simt_instructions
                                     for c in self.cores),
            "cycles_active": sum(c.stats.cycles_active for c in self.cores),
            "idle_cycles": sum(c.stats.idle_cycles for c in self.cores),
            "lsu_stalls": sum(c.stats.lsu_stalls for c in self.cores),
            "lsu_replays": sum(c.stats.lsu_replays for c in self.cores),
            "scoreboard_stalls": sum(c.stats.scoreboard_stalls
                                     for c in self.cores),
            "barrier_waits": sum(c.stats.barrier_waits for c in self.cores),
            "dcache.accesses": sum(c.dcache.stats.accesses
                                   for c in self.cores),
            "dcache.hits": sum(c.dcache.stats.hits for c in self.cores),
            "dcache.misses": sum(c.dcache.stats.misses for c in self.cores),
            "dram.requests": self.dram.stats.requests,
            "dram.row_hits": self.dram.stats.row_hits,
            "dram.row_misses": self.dram.stats.row_misses,
            "skip.ff_windows": skip["ff_windows"],
            "skip.ff_cycles": skip["ff_cycles"],
        }
        prof.count_many(totals, prefix="simx.")
        hits, misses = totals["dcache.hits"], totals["dcache.misses"]
        if hits + misses:
            prof.count("simx.dcache.hit_rate", hits / (hits + misses))
        if self.dram.stats.requests:
            prof.count("simx.dram.row_hit_rate",
                       self.dram.stats.row_hit_rate)

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
        ndr = self._ndrange
        ipg = ndr.items_per_group
        warps_needed = self._warps_per_group(ndr)
        wave_mode = self._image is not None and self._image.wave_mode
        ncores = cfg.cores
        stuck = 0
        while self._pending and stuck < ncores:
            core = self.cores[self._dispatch_cursor % ncores]
            self._dispatch_cursor += 1
            free_warps = [w for w in core.warps if not w.active]
            free_slots = [s for s, ok in enumerate(self._slot_free[core.cid])
                          if ok]
            if len(free_warps) < warps_needed or not free_slots:
                stuck += 1
                continue
            stuck = 0
            group = self._pending.pop(0)
            slot = free_slots[0]
            self._slot_free[core.cid][slot] = False
            key = self._next_group_key
            self._next_group_key += 1
            self._group_remaining[key] = warps_needed
            self._group_slot[key] = (core.cid, slot)
            if self.profiler.enabled:
                self._profile_dispatch(now, key, group, core, slot,
                                       warps_needed)
            local_base = layout.local_window(core.cid, slot, cfg.warps)
            entry_pc = self.program.labels[self._image.kernel_name]
            for k in range(warps_needed):
                warp = free_warps[k]
                csrs = {
                    int(CSR.GROUP_ID0): group[0],
                    int(CSR.GROUP_ID1): group[1],
                    int(CSR.GROUP_ID2): group[2],
                    int(CSR.LOCAL_OFFSET): k * cfg.threads,
                    int(CSR.GROUP_SLOT): slot,
                    int(CSR.GROUP_WARPS): warps_needed,
                    int(CSR.LOCAL_BASE): local_base,
                }
                tmask = np.zeros(cfg.threads, dtype=bool)
                if wave_mode:
                    # First wave: lanes 0..min(T, items)-1; the kernel's
                    # own wave loop re-masks the later waves.
                    tmask[: min(cfg.threads, ipg)] = True
                else:
                    for lane in range(cfg.threads):
                        tmask[lane] = k * cfg.threads + lane < ipg
                sp = np.array(
                    [
                        layout.stack_top(
                            (core.cid * cfg.warps + warp.wid) * cfg.threads
                            + lane
                        )
                        for lane in range(cfg.threads)
                    ],
                    dtype=np.int32,
                )
                warp.reset_for_group(entry_pc, tmask, csrs, sp)
                warp.ready_at = now + 1
                warp.group_key = key
            self._active_warps += warps_needed
            self._groups_dispatched += 1
            # New warps invalidate the core's cached idle classification.
            self._frozen_until[core.cid] = 0
        # Loop exited either because nothing is pending or because a
        # full scan found no room; in the latter case skip further
        # attempts until a warp halts (nothing else frees capacity).
        self._dispatch_blocked = bool(self._pending)

    def on_warp_halt(self, core: Core, warp, now: int = 0) -> None:
        self._active_warps -= 1
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


_DEVICE_PID = 0


def _core_pid(cid: int) -> int:
    """Chrome-trace process id for one core (0 is the device process)."""
    return cid + 1


class _BucketSampler:
    """Emits per-cycle-bucket issue/stall/idle breakdowns per core plus
    cache/DRAM counter snapshots as Chrome counter tracks.

    The machine's fast-forwarding main loop does not visit every cycle,
    so sampling is edge-triggered: whenever ``now`` crosses the next
    bucket boundary the delta since the previous sample is emitted,
    stamped at the current cycle. Cycles the clock jumped over are
    surfaced explicitly as a device-track "skipped cycles" counter, so a
    sparse region of the timeline is distinguishable from a quiet one.
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
        return (s.instructions, s.cycles_active, s.idle_cycles,
                s.lsu_stalls, s.scoreboard_stalls,
                core.dcache.stats.hits + core.dcache.stats.misses)

    def maybe_sample(self, now: int) -> None:
        if now >= self.next_ts:
            self._emit(now)
            self.next_ts = now - now % self.bucket + self.bucket

    def flush(self, now: int) -> None:
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
