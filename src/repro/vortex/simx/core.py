"""One SIMT core: warp scheduler, execution units, LSU, D-cache.

The core issues at most one warp-instruction per cycle (Vortex is a
single-issue in-order design). A warp is *ready* when it is active, not
parked at a barrier, past its structural ``ready_at`` time, and all its
source registers are available per its scoreboard. Memory instructions
additionally need a free LSU queue entry and the LSU lane-sequencer to be
free; when the selected warp is blocked on the LSU, the core records an
**LSU stall** — the counter behind the paper's Figure 7 discussion.

Execution is functional-at-issue (register values are computed
immediately, numpy-vectorised across lanes) with timing imposed through
the scoreboard (result-availability cycles) and the LSU/DRAM models.

The per-issue work here is deliberately thin:

* :meth:`Core.tick` looks a warp's instruction up by PC in the decoded
  program (:mod:`.decode`) and checks its one source tuple against the
  warp's one 64-entry scoreboard; the handlers write registers in place
  through the warps' row views. A tick returns the core's next wake-up
  horizon: the end of the issue window after an issue, else
  :meth:`Core.next_change_time`, a conservative bound on how long an
  idle core's stall classification stays constant, so :mod:`.machine`
  does not tick the core before then.
* An issue books no counter: each occupies exactly ``_issue_beats``
  cycles, so :meth:`Core.fold_counters` derives ``instructions`` and
  ``cycles_active`` from the warps' issue counts once per launch (and
  before each profiler sample). An idle run is booked once, at the stall
  class of the tick that started it, when it ends: at the core's next
  tick or in :meth:`Core.fold_counters`.
* A load or store makes one pass over its lane addresses, checking them
  and grouping them by line (:meth:`Core._lsu_lines`); a replayed load
  reuses that pass. A load the MSHRs turn away costs only its issue
  slot: it probes the D-cache without booking anything, and until an
  MSHR is released (``_mshr_epoch``) its replays are turned away without
  a probe. The LSU queue and the MSHR entries are heaps, so a purge
  (due at ``_purge_at``, the earliest expiry) pops only what expired,
  and the write-combining buffer evicts its first key.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ...errors import SimulationError, TrapError
from ..isa import CSR, FP_RD, FP_RS1, FP_RS2, Fmt, Instruction, SIMT_OPS, SPECS
from .cache import Cache
from .config import VortexConfig
from .warp import BLOCKED, Warp

_INT32_MIN = np.int32(-(2**31))


@dataclass
class InstrMeta:
    """Pre-decoded issue metadata for one instruction."""

    srcs_x: tuple[int, ...] = ()
    srcs_f: tuple[int, ...] = ()
    dst: tuple[str, int] | None = None
    is_mem: bool = False
    kind: str = "alu"  # alu|mul|div|fpu|fdiv|sfu|mem|csr|simt


_MUL_OPS = {"mul", "mulh"}
_DIV_OPS = {"div", "rem"}
_FPU_OPS = {
    "fadd.s", "fsub.s", "fmul.s", "fmin.s", "fmax.s", "fsgnj.s", "fsgnjn.s",
    "fsgnjx.s", "feq.s", "flt.s", "fle.s", "fcvt.w.s", "fcvt.s.w",
    "fmv.x.w", "fmv.w.x",
}
_FDIV_OPS = {"fdiv.s", "fsqrt.s"}
_SFU_OPS = {"fexp.s", "flog.s", "fsin.s", "fcos.s", "ffloor.s", "fpow.s"}
_MEM_OPS = {"lw", "sw", "flw", "fsw",
            "amoadd.w", "amoswap.w", "amomin.w", "amomax.w", "amocas.w"}


def instr_meta(ins: Instruction) -> InstrMeta:
    m = ins.mnemonic
    spec = SPECS[m]
    srcs_x: list[int] = []
    srcs_f: list[int] = []
    if spec.fmt in (Fmt.R, Fmt.I, Fmt.S, Fmt.B, Fmt.AMO, Fmt.CSR):
        (srcs_f if m in FP_RS1 else srcs_x).append(ins.rs1)
    if spec.fmt in (Fmt.R, Fmt.S, Fmt.B, Fmt.AMO):
        (srcs_f if m in FP_RS2 else srcs_x).append(ins.rs2)
    if m == "amocas.w":
        srcs_x.append(ins.rd)  # rd carries the expected value
    dst: tuple[str, int] | None = None
    if spec.fmt in (Fmt.R, Fmt.I, Fmt.U, Fmt.J, Fmt.CSR, Fmt.AMO) and \
            m not in ("sw", "fsw") and m not in SIMT_OPS:
        if m in FP_RD:
            dst = ("f", ins.rd)
        elif ins.rd != 0:
            dst = ("x", ins.rd)
    if m in _MUL_OPS:
        kind = "mul"
    elif m in _DIV_OPS:
        kind = "div"
    elif m in _FPU_OPS:
        kind = "fpu"
    elif m in _FDIV_OPS:
        kind = "fdiv"
    elif m in _SFU_OPS:
        kind = "sfu"
    elif m in _MEM_OPS:
        kind = "mem"
    elif m == "csrrs":
        kind = "csr"
    elif m in SIMT_OPS:
        kind = "simt"
    else:
        kind = "alu"
    return InstrMeta(
        srcs_x=tuple(srcs_x),
        srcs_f=tuple(srcs_f),
        dst=dst,
        is_mem=kind == "mem",
        kind=kind,
    )


@dataclass
class CoreStats:
    instructions: int = 0  # retired: issues less lsu_replays
    cycles_active: int = 0
    idle_cycles: int = 0
    lsu_stalls: int = 0
    lsu_replays: int = 0  # loads bounced off full MSHRs (wasted slots)
    scoreboard_stalls: int = 0
    barrier_waits: int = 0
    simt_instructions: int = 0


#: ``Core._stall`` classification of an idle tick.
STALL_NONE = 0
STALL_LSU = 1
STALL_SCOREBOARD = 2


class Core:
    def __init__(self, cid: int, config: VortexConfig, machine: "object"):
        self.cid = cid
        self.config = config
        self.machine = machine
        self.warps = [Warp(w, config.threads) for w in range(config.warps)]
        self.dcache = Cache(config.dcache_size, config.dcache_ways,
                            config.line_size)
        #: completion cycles of the LSU queue's entries (a heap).
        self.lsu_inflight: list[int] = []
        self.lsu_busy_until = 0
        #: outstanding missed lines: line address -> fill-completion cycle
        #: (DRAM fetches merge per line).
        self.mshrs: dict[int, int] = {}
        #: per-lane MSHR occupancy, a heap of (release cycle, line
        #: address, lanes). Every line of ``mshrs`` has an entry here
        #: with its fill cycle, so popping the entries frees the lines.
        self.mshr_entries: list[tuple[int, int, int]] = []
        #: earliest expiry across lsu_inflight/mshr_entries; the heaps
        #: are only popped when the clock reaches it.
        self._purge_at = BLOCKED
        #: bumped whenever a purge releases MSHR entries. A load turned
        #: away at an epoch that is still current is turned away again:
        #: until a release, other loads can only add pending lines and
        #: occupancy or evict lines, so its waiting lanes only grow and
        #: the free entries only shrink.
        self._mshr_epoch = 0
        #: write-combining buffer: its lines, least recently written
        #: first (a refresh moves a line to the end; the victim is the
        #: first key).
        self.wc_buffer: dict[int, None] = {}
        #: multi-beat issue: the issue stage is busy until this cycle.
        self.issue_busy_until = 0
        self._issue_beats = max(
            1, -(-config.threads // config.issue_lanes)
        )
        self.rr = 0
        self.stats = CoreStats()
        #: barrier slot -> list of waiting warp indices.
        self.barriers: dict[int, list[int]] = {}
        #: why the last idle tick stalled (STALL_* constant).
        self._stall = STALL_NONE
        #: first cycle of the open idle run (booked at ``_stall`` when the
        #: run ends), or ``BLOCKED`` while no run is open.
        self._idle_from = 0
        self._nwarps = config.warps
        self._lsu_depth = config.lsu_queue_depth
        self._fetch = machine.fetch
        #: incremental MSHR occupancy (sum of mshr_entries lane counts).
        self._mshr_occupancy = 0
        #: warps running no group or spawn: the dispatcher's room on
        #: this core, kept by the machine at dispatch, halt and wspawn.
        self.free_warps = config.warps
        #: the highest valid word address of device memory.
        self._last_word = machine.memory.size - 4
        #: a T-lane row of 2s: an address row shifts to word indices by
        #: a row at half the cost of a shift by the Python int 2.
        self._word_shift = np.full(config.threads, 2, dtype=np.int64)
        #: decoded program keyed by PC; set by Machine.load_image.
        self._code: dict = {}
        #: round-robin scan orders: _orders[rr] lists warps starting at
        #: rr+1, so the issue scan is a plain iteration.
        nw = config.warps
        self._orders = [
            tuple(self.warps[(r + 1 + k) % nw] for k in range(nw))
            for r in range(nw)
        ]

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------

    def tick(self, now: int) -> int:
        """Advance the issue stage one cycle; return the core's next
        wake-up horizon.

        An issue returns the end of its window (``issue_busy_until``).
        An idle tick starts an idle run at ``now``, with ``_stall``
        recording why (an LSU block outranks a scoreboard block), and
        returns :meth:`next_change_time`. A tick first books the idle
        run it ends, so a run is booked once however many of its cycles
        the machine skipped. An issue books nothing here:
        :meth:`fold_counters` derives ``instructions`` and
        ``cycles_active`` from the warps' issue counts. The machine
        never ticks a core inside a multi-beat issue window
        (``now < issue_busy_until``).
        """
        if now >= self._idle_from:
            self._book_idle(now)
            self._idle_from = BLOCKED
        if now >= self._purge_at:
            self._purge(now)
        stall = STALL_NONE
        code = self._code
        for warp in self._orders[self.rr]:
            # ready_at is BLOCKED for halted/parked warps (invariant
            # kept by halt()/_exec_bar), so one compare gates the scan.
            if warp.ready_at > now:
                continue
            try:
                d = code[warp.pc]
            except KeyError:
                d = self._fetch(warp.pc)  # raises the canonical error
            sb = warp.scoreboard
            for r in d.srcs:
                if sb[r] > now:
                    break
            else:  # every source is ready
                if d.is_mem and (len(self.lsu_inflight) >= self._lsu_depth
                                 or self.lsu_busy_until > now):
                    stall = STALL_LSU
                    continue
                busy = now + self._issue_beats
                self.issue_busy_until = warp.ready_at = busy
                warp._iseq += 1
                d.handler(self, warp, d, now)
                self.rr = warp.wid
                if d.is_simt:
                    self.stats.simt_instructions += 1
                return busy
            if not stall:
                stall = STALL_SCOREBOARD
        self._idle_from = now
        self._stall = stall
        return self.next_change_time(now)

    def _book_idle(self, now: int) -> None:
        """Book the idle cycles from ``_idle_from`` up to ``now`` at the
        stall class of the tick that started the run."""
        k = now - self._idle_from
        stats = self.stats
        stats.idle_cycles += k
        if self._stall == STALL_LSU:
            stats.lsu_stalls += k
        elif self._stall == STALL_SCOREBOARD:
            stats.scoreboard_stalls += k

    def _purge(self, now: int) -> None:
        """Pop the expired LSU queue entries and MSHR entries (freeing
        their lines' outstanding fills, and bumping ``_mshr_epoch``);
        recompute the next expiry time."""
        inflight = self.lsu_inflight
        while inflight and inflight[0] <= now:
            heappop(inflight)
        entries = self.mshr_entries
        if entries and entries[0][0] <= now:
            mshrs = self.mshrs
            while entries and entries[0][0] <= now:
                _, line, nlanes = heappop(entries)
                mshrs.pop(line, None)  # a line's later entries find it gone
                self._mshr_occupancy -= nlanes
            self._mshr_epoch += 1
        self._purge_at = min(inflight[0] if inflight else BLOCKED,
                             entries[0][0] if entries else BLOCKED)

    def fold_counters(self, now: int) -> None:
        """Bring the counters up to the start of cycle ``now``: book the
        open idle run, and derive ``instructions`` (the retired ones:
        issues less replayed loads) and ``cycles_active`` (every issue,
        replays included, occupies exactly ``_issue_beats`` cycles, less
        the part of the last window at or past ``now``)."""
        if now > self._idle_from:
            self._book_idle(now)
            self._idle_from = now
        issued = sum(warp._iseq for warp in self.warps)
        stats = self.stats
        stats.instructions = issued - stats.lsu_replays
        stats.cycles_active = issued * self._issue_beats - max(
            0, self.issue_busy_until - now)

    def next_change_time(self, now: int) -> int:
        """Earliest future cycle at which this core's tick outcome
        (issue vs. idle, and the idle stall classification) could differ
        from the one just computed at ``now``; ``BLOCKED`` when no warp
        waits on a cycle (the core is empty or parked at a barrier).

        Conservative by construction: the minimum over *every* pending
        threshold — each stalled warp's ``ready_at``, every
        not-yet-available source register, the LSU queue's earliest
        completion when full and the lane-sequencer's busy horizon. As
        long as the machine clock stays below this bound, re-running
        :meth:`tick` would start the same idle run, which is what
        licenses the machine not to tick the core before then. Called
        at the end of an idle tick, which has purged the LSU queues and
        fetched every warp that could issue.
        """
        best = BLOCKED
        code = self._code
        for warp in self.warps:
            # A halted or parked warp's BLOCKED never lowers ``best``.
            rt = warp.ready_at
            if rt > now:
                if rt < best:
                    best = rt
                continue
            d = code[warp.pc]
            sb = warp.scoreboard
            for r in d.srcs:
                t = sb[r]
                if now < t < best:
                    best = t
            if d.is_mem:
                if len(self.lsu_inflight) >= self._lsu_depth:
                    t = self.lsu_inflight[0]
                    if now < t < best:
                        best = t
                t = self.lsu_busy_until
                if now < t < best:
                    best = t
        return best

    # ------------------------------------------------------------------
    # Shared execution helpers (called from the decoded handlers).
    # ------------------------------------------------------------------

    def _uniform_value(self, warp: Warp, values: np.ndarray) -> int:
        active = values[warp.tmask]
        if len(active) and not (active == active[0]).all():
            raise SimulationError(
                f"warp {warp.wid}: non-uniform value where uniform required "
                f"at pc {warp.pc:#x}"
            )
        return int(active[0])

    def _read_csr(self, warp: Warp, csr: int) -> np.ndarray:
        cached = warp.csr_cache.get(csr)
        if cached is None:
            if csr == CSR.TMASK:
                # The only CSR whose value changes while a group runs,
                # so it is never cached.
                return np.full(self.config.threads, warp.tmask_bits(),
                               dtype=np.int32)
            cached = self._csr_value(warp, csr)
            warp.csr_cache[csr] = cached
        return cached

    def _csr_value(self, warp: Warp, csr: int) -> np.ndarray:
        T = self.config.threads
        if csr == CSR.THREAD_ID:
            return np.arange(T, dtype=np.int32)
        if csr == CSR.WARP_ID:
            return np.full(T, warp.wid, dtype=np.int32)
        if csr == CSR.CORE_ID:
            return np.full(T, self.cid, dtype=np.int32)
        if csr == CSR.NUM_THREADS:
            return np.full(T, T, dtype=np.int32)
        if csr == CSR.NUM_WARPS:
            return np.full(T, self.config.warps, dtype=np.int32)
        if csr == CSR.NUM_CORES:
            return np.full(T, self.config.cores, dtype=np.int32)
        if csr in warp.csrs:
            return np.full(T, warp.csrs[csr], dtype=np.int32)
        raise TrapError(f"read of unknown CSR {csr:#x}")

    # -- memory --------------------------------------------------------------

    def _exec_load(self, warp: Warp, d, now: int) -> None:
        # Replay memo: a load bounced off full MSHRs re-issues with the
        # warp untouched (no writeback happened, no other instruction of
        # this warp ran in between — _iseq proves it), so the checked
        # address row and its line grouping are reusable verbatim, and
        # while no MSHR was released since, so is the rejection.
        memo = warp._lsu_replay
        if memo is not None and memo[0] == warp._iseq - 1 \
                and memo[1] == warp.pc:
            _, _, epoch, addrs, items = memo
            rejected = epoch == self._mshr_epoch
        else:
            row = warp.xr[d.rs1]
            # int32 + int64 upcasts in a single ufunc call.
            addrs = (np.add(row, d.row) if warp._full
                     else row[warp.tmask] + d.imm64)
            items = self._lsu_lines(addrs)
            rejected = False
        lanes = len(addrs)
        completion = (None if rejected
                      else self._lsu_load_timing(items, lanes, now))
        if completion is None:
            # All MSHRs busy: the load is replayed later; this issue
            # slot is wasted (an LSU stall in the paper's terms).
            warp._lsu_replay = (warp._iseq, warp.pc, self._mshr_epoch,
                                addrs, items)
            warp.ready_at = now + self.config.replay_penalty
            self.stats.lsu_replays += 1
            return
        warp._lsu_replay = None
        if d.wb >= 0:
            mem = self.machine.memory
            words = mem.floats if d.aux else mem.words  # aux: flw
            vals = words[addrs >> self._word_shift[:lanes]]
            dst = (warp.fr if d.aux else warp.xr)[d.rd]
            if warp._full:
                dst[...] = vals
            else:
                dst[warp.tmask] = vals
            warp.scoreboard[d.wb] = completion
        warp.pc += 4
        self._lsu_book(lanes, completion, now)

    def _exec_store(self, warp: Warp, d, now: int) -> None:
        full = warp._full
        row = warp.xr[d.rs1]
        addrs = np.add(row, d.row) if full else row[warp.tmask] + d.imm64
        lanes = len(addrs)
        items = self._lsu_lines(addrs)
        mem = self.machine.memory
        words = mem.floats if d.aux else mem.words  # aux: fsw
        src = (warp.fr if d.aux else warp.xr)[d.rs2]
        words[addrs >> self._word_shift[:lanes]] = (src if full
                                                    else src[warp.tmask])
        completion = self._lsu_store_timing(items, lanes, now)
        warp.pc += 4
        self._lsu_book(lanes, completion, now)

    def _lsu_lines(self, addrs: np.ndarray) -> list[tuple[int, int]]:
        """Check a memory instruction's lane addresses and count its
        lanes per line, in one pass over the row. Returns the
        ``(line index, lanes)`` pairs in line order: DRAM bank state and
        the deterministic row evictions depend on request order, so it
        must stay canonical. A bad lane traps with exactly what
        :meth:`Memory._check_word` raises for the row: the first
        out-of-range lane, else the first unaligned one."""
        counts: dict[int, int] = {}
        get = counts.get
        ls = self.config.line_size
        last = self._last_word
        for a in addrs.tolist():
            if a < 0 or a > last or a & 3:
                self.machine.memory._check_word(addrs)  # raises
            ln = a // ls
            counts[ln] = get(ln, 0) + 1
        return sorted(counts.items())

    def _exec_amo(self, warp: Warp, d, now: int) -> None:
        # AMOs bypass the cache and serialise per lane through DRAM.
        cfg = self.config
        m = d.mnemonic
        mem = self.machine.memory
        mask = warp.tmask
        addrs = warp.xr[d.rs1][mask].astype(np.int64)
        lanes = len(addrs)
        if (addrs & 3).any():
            raise TrapError(f"unaligned atomic at pc {warp.pc:#x}")
        completion = now + cfg.dcache_hit_latency
        results = np.zeros(lanes, dtype=np.int32)
        src = warp.xr[d.rs2][mask]
        expected = warp.xr[d.rd][mask] if m == "amocas.w" else None
        for i in range(lanes):
            addr = int(addrs[i])
            line = addr & ~(cfg.line_size - 1)
            completion = self.machine.dram.access(line, completion)
            old = mem.read_word(addr)
            results[i] = old
            val = int(src[i])
            if m == "amoadd.w":
                new = int(np.int32(np.int64(old) + val))
            elif m == "amomin.w":
                new = min(old, val)
            elif m == "amomax.w":
                new = max(old, val)
            elif m == "amoswap.w":
                new = val
            else:  # amocas.w
                new = val if old == int(expected[i]) else old
            mem.write_word(addr, new)
        if d.wb >= 0:
            warp.xr[d.rd][mask] = results
            warp.scoreboard[d.wb] = completion
        warp.pc += 4
        self._lsu_book(lanes, completion, now)

    def _lsu_book(self, lanes: int, completion: int, now: int) -> None:
        """Common LSU tail: occupy a queue entry until ``completion`` and
        hold the lane-sequencer for the unpack beats."""
        heappush(self.lsu_inflight, completion)
        if completion < self._purge_at:
            self._purge_at = completion
        unpack = max(1, -(-lanes // self.config.lsu_lanes_per_cycle))
        self.lsu_busy_until = max(self.lsu_busy_until, now) + unpack

    def _lsu_load_timing(self, items: list[tuple[int, int]], lanes: int,
                         now: int) -> int | None:
        """Cache/MSHR/DRAM timing for one warp load of ``lanes`` lanes
        over the ``(line index, lanes)`` pairs ``items``.

        Returns the data-ready cycle, or ``None`` when a new line miss
        found every MSHR occupied (the load must be replayed). The
        D-cache is only probed until the load is accepted, so a rejected
        load changes nothing; an accepted one then books its lookups in
        line order, before its fills.
        """
        cfg = self.config
        if lanes == 0:
            return now + cfg.dcache_hit_latency
        completion = now + cfg.dcache_hit_latency
        looked_up: list[int] = []  # lines with no fill in flight
        new_misses: list[int] = []
        waiting_lanes = 0
        mshrs = self.mshrs
        probe = self.dcache.probe
        for ln, nlanes in items:
            line = ln * cfg.line_size
            pending = mshrs.get(line)
            if pending is not None:
                # Fill already in flight: lanes merge onto it but still
                # occupy their own MSHR entries until it returns.
                if pending > completion:
                    completion = pending
                waiting_lanes += nlanes
                continue
            looked_up.append(line)
            if not probe(line):
                new_misses.append(line)
                waiting_lanes += nlanes
        if waiting_lanes:
            occupancy = self._mshr_occupancy
            free = cfg.mshrs - occupancy
            # Oversized gathers (more lanes than MSHRs exist) are allowed
            # through once the MSHRs have fully drained, guaranteeing
            # forward progress.
            if waiting_lanes > free and not (
                waiting_lanes > cfg.mshrs and occupancy == 0
            ):
                return None
        lookup = self.dcache.lookup
        for line in looked_up:
            lookup(line)
        if waiting_lanes:
            dram_access = self.machine.dram.access
            for line in new_misses:
                t = dram_access(line, now + cfg.dcache_hit_latency)
                mshrs[line] = t
                if t < self._purge_at:
                    self._purge_at = t
                self.dcache.fill(line)
                if t > completion:
                    completion = t
            # Lanes of each line release when their fill returns.
            entries = self.mshr_entries
            for ln, nlanes in items:
                line = ln * cfg.line_size
                t = mshrs.get(line)
                if t is not None:
                    heappush(entries, (t, line, nlanes))
                    self._mshr_occupancy += nlanes
        unpack = max(1, -(-lanes // cfg.lsu_lanes_per_cycle))
        return completion + unpack

    def _lsu_store_timing(self, items: list[tuple[int, int]], lanes: int,
                          now: int) -> int:
        """Write-through, no-allocate stores: pay DRAM bandwidth, hold an
        LSU entry, but never block on MSHRs and never wait the warp.
        Stores to a line still in the write-combining buffer merge (a
        partial-line store would otherwise hit DRAM once per wave)."""
        cfg = self.config
        if lanes == 0:
            return now + cfg.dcache_hit_latency
        completion = now + cfg.dcache_hit_latency
        wc = self.wc_buffer
        for ln, _ in items:
            line = ln * cfg.line_size
            if line in wc:
                del wc[line]  # refresh: the line moves to the end
                wc[line] = None
                continue
            t = self.machine.dram.access(line, now + cfg.dcache_hit_latency)
            if t > completion:
                completion = t
            wc[line] = None
            if len(wc) > cfg.wc_entries:
                del wc[next(iter(wc))]  # the least recently written line
        unpack = max(1, -(-lanes // cfg.lsu_lanes_per_cycle))
        return completion + unpack

    # -- SIMT control -------------------------------------------------------

    def _exec_split(self, warp: Warp, d, now: int) -> None:
        """Fused SPLIT + conditional branch (see codegen docstring).

        The following branch is static, so its direction sense and
        target were resolved at decode time (``d.aux``); the dynamic
        fallback only runs for malformed pairs, preserving the original
        diagnostics.
        """
        info = d.aux
        if info is None:
            branch = self.machine.fetch(warp.pc + 4)
            if branch.mnemonic not in ("beq", "bne") or branch.rs2 != 0:
                raise SimulationError(
                    f"SPLIT at pc {warp.pc:#x} not followed by a beq/bne "
                    f"on x0"
                )
            info = (branch.mnemonic == "beq", warp.pc + 4 + branch.imm)
        then_on_true, branch_target = info
        full = warp._full
        pred = warp.xr[d.rs1] != 0
        if not full:
            pred &= warp.tmask
        lanes = np.count_nonzero(pred)
        if not lanes or lanes == (warp.num_threads if full
                                  else np.count_nonzero(warp.tmask)):
            warp.push_uniform_marker()
            warp.pc += 4  # branch executes normally next cycle
            return
        if then_on_true:
            # Lanes with cond == 0 take the branch (the else side).
            else_mask = warp.tmask & ~pred
            then_mask = pred
        else:
            else_mask = pred
            then_mask = warp.tmask & ~pred
        warp.push_divergence(warp.tmask, else_mask, branch_target)
        warp.tmask = then_mask
        warp._full = False  # both sides non-empty, so strictly partial
        warp.pc += 8  # branch is consumed by the split

    def _exec_bar(self, warp: Warp, d, now: int) -> None:
        lane = warp.first_active_lane()
        bar_id = int(warp.xr[d.rs1][lane])
        count = int(warp.xr[d.rs2][lane])
        warp.pc += 4
        waiting = self.barriers.setdefault(bar_id, [])
        waiting.append(warp.wid)
        if len(waiting) >= count:
            for wid in waiting:
                self.warps[wid].at_barrier = False
                self.warps[wid].ready_at = now + 1
            del self.barriers[bar_id]
        else:
            warp.at_barrier = True
            warp.ready_at = BLOCKED
            self.stats.barrier_waits += 1

    def _exec_wspawn(self, warp: Warp, d, now: int) -> None:
        lane = warp.first_active_lane()
        count = int(warp.xr[d.rs1][lane])
        target = int(warp.xr[d.rs2][lane])
        warp.pc += 4
        spawned = 0
        for other in self.warps:
            if other is warp or other.active or spawned >= count - 1:
                continue
            if other.xr is None:
                other.bind_rows()
            other.pc = target
            other.tmask = np.ones(self.config.threads, dtype=bool)
            other._full = True
            other.active = True
            other.ready_at = now + 1
            spawned += 1
            self.machine.on_warp_spawn(self, other, now)

    def _execute_printf(self, warp: Warp, d) -> None:
        mem = self.machine.memory
        fmt_addr = int(warp.x[d.rs1][warp.first_active_lane()])
        fmt = mem.read_cstring(fmt_addr)
        spec_types = _printf_arg_types(fmt)
        for lane in np.nonzero(warp.tmask)[0]:
            cursor = int(warp.x[d.rs2][lane])
            args = []
            for ty in spec_types:
                word = mem.read_word(cursor)
                cursor += 4
                if ty == "f":
                    args.append(float(np.array([word], dtype=np.int32)
                                      .view(np.float32)[0]))
                else:
                    args.append(int(word))
            try:
                text = fmt % tuple(args)
            except (TypeError, ValueError) as exc:
                raise TrapError(f"bad printf at pc {warp.pc:#x}: {exc}")
            self.machine.printf_output.append(text)


def _printf_arg_types(fmt: str) -> list[str]:
    """'f' for float conversions, 'd' for everything else."""
    out = []
    i = 0
    while i < len(fmt):
        if fmt[i] == "%":
            if i + 1 < len(fmt) and fmt[i + 1] == "%":
                i += 2
                continue
            j = i + 1
            while j < len(fmt) and fmt[j] in "0123456789.+- #":
                j += 1
            if j < len(fmt):
                out.append("f" if fmt[j] in "feEgG" else "d")
            i = j + 1
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# RISC-V M-extension division semantics (shared with the decoded handler
# tables; the corner cases are pinned by tests).
# ---------------------------------------------------------------------------


def _sdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    res = np.full_like(a, -1)
    ovf = (a == _INT32_MIN) & (b == -1)
    res[ovf] = _INT32_MIN
    safe = (b != 0) & ~ovf
    q = np.trunc(a[safe].astype(np.float64) / b[safe].astype(np.float64))
    res[safe] = q.astype(np.int64).astype(np.int32)
    return res


def _srem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    res = a.copy()  # rem by zero -> dividend
    ovf = (a == _INT32_MIN) & (b == -1)
    res[ovf] = 0
    safe = (b != 0) & ~ovf
    q = np.trunc(a[safe].astype(np.float64) / b[safe].astype(np.float64))
    res[safe] = (
        a[safe].astype(np.int64) - q.astype(np.int64) * b[safe].astype(np.int64)
    ).astype(np.int32)
    return res
