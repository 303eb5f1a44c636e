"""Checkpoint/restore for the SimX machine: preemptible simulations.

A snapshot captures the *complete* mutable state of a mid-flight
:class:`~.machine.Machine` — per-warp register files, masks, IPDOM
stacks, scoreboards and LSU replay memos; per-core pipeline, cache
tag/LRU arrays, MSHR and write-combine queues and frozen-until state;
DRAM bank timing; the dispatcher's pending/slot bookkeeping; profiler
counters (CoreStats/CacheStats/DRAMStats) and the fast-forward skip
counters; and the memory image, delta-compressed against the
deterministic post-marshal baseline. Restoring a snapshot and running
to completion is byte-identical to a never-checkpointed run — the
golden-trace suite and the hypothesis round-trip property in
``tests/test_checkpoint.py`` pin this.

Snapshot files are a single JSON header line (magic, format version,
source fingerprint, point id, cycle, payload length + sha256) followed
by a zlib-compressed pickle of the state tree. Writes go through
:func:`repro.durable.atomic_write` with the file fsynced; loads
verify every header field and degrade to ``None`` — a clean re-run —
on corruption or version/fingerprint skew, unlinking the bad file.

Cooperative preemption: ``Machine.launch(checkpoint=...)`` polls a
:class:`CheckpointControl` at a coarse cycle cadence; when the
control's deadline passes (or its stop file appears), the machine
writes a snapshot and raises :class:`~...errors.SimulationPreempted`
instead of being SIGKILLed by the engine watchdog. The engine requeues
preempted points without charging a retry as long as the snapshot
cycle advances; the next attempt resumes from the snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from ... import durable
from ...errors import CheckpointError
from ...fingerprint import code_fingerprint
from .cache import CacheStats
from .core import CoreStats
from .dram import DRAMStats
from .warp import IPDOMEntry

#: First line of every snapshot file.
SNAPSHOT_MAGIC = "repro-simx-snapshot"

#: Bump whenever the state tree captured below changes shape. Old
#: snapshots are then rejected (and unlinked) instead of misrestored.
#: v2: ``baseline_sha`` (sha256) became ``baseline_digest`` (crc32).
#: v3: ``skip_stats`` holds only ``ff_windows``/``ff_cycles``, which now
#: count the all-stalled jump.
SNAPSHOT_VERSION = 3

#: Default snapshot cadence in simulated cycles.
DEFAULT_EVERY_CYCLES = 2_000_000

#: The machine polls the control (deadline / stop file) at least this
#: often even when ``every_cycles`` is larger, so preemption latency is
#: bounded by wall-clock, not by the snapshot cadence.
CHECK_INTERVAL = 16_384

#: zlib level for hot-path (mid-run) snapshots: stored-block framing
#: only, no deflate pass. Snapshot wall cost is dominated by the memory
#: delta scan, and each point's snapshot file is overwritten in place —
#: the disk space a real compression pass buys back is not worth its
#: time on the simulation's critical path. ``load`` is level-agnostic.
HOT_COMPRESS_LEVEL = 0

#: Adaptive cadence (plans whose ``every_cycles`` was defaulted only):
#: whenever one snapshot costs more than this fraction of the wall time
#: since the previous one, the cadence doubles — bounding steady-state
#: snapshot overhead near the target regardless of how expensive
#: capture turns out to be for this workload on this machine.
ADAPT_TARGET_OVERHEAD = 0.05

#: Ceiling on adaptive stretching (worst-case re-simulated work on a
#: resume stays bounded).
ADAPT_MAX_EVERY_CYCLES = 64 * DEFAULT_EVERY_CYCLES


def _slug(point_id: str) -> str:
    safe = re.sub(r"[^\w.+-]", "_", point_id)[:80]
    digest = hashlib.sha256(point_id.encode()).hexdigest()[:8]
    return f"{safe}-{digest}"


def program_fingerprint(image: Any, config: Any) -> str:
    """Identity of the decoded-instruction table a snapshot depends on:
    the program words plus the config label (decode specialises on
    geometry). A snapshot never restores onto a different program."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(image.program.words).tobytes())
    h.update(image.kernel_name.encode())
    h.update(config.label().encode())
    return h.hexdigest()


def baseline_digest(mem: np.ndarray) -> str:
    """Cheap identity of the post-marshal memory baseline a snapshot's
    delta applies to. This runs over the full device memory on *every*
    checkpoint-armed launch (and again on resume), so speed matters:
    it only has to catch two deterministic runs marshalling different
    arguments, which crc32+length does at under half sha256's cost."""
    return f"crc32:{zlib.crc32(mem) & 0xFFFFFFFF:08x}:{len(mem)}"


# ----------------------------------------------------------------------
# State capture / restore (duck-typed over Machine to avoid an import
# cycle; the field lists mirror the __init__ bodies of Warp, Core,
# Cache, DRAM and Machine).
# ----------------------------------------------------------------------


def _dup(obj: Any) -> Any:
    """Deep-copy an LSU replay memo tree (ndarrays, lists, tuples)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_dup(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_dup(x) for x in obj)
    return obj


def _capture_warp(warp: Any) -> dict[str, Any]:
    return {
        "x": warp.x.copy(),
        "f": warp.f.copy(),
        "pc": warp.pc,
        "tmask": warp.tmask.copy(),
        "active": warp.active,
        "at_barrier": warp.at_barrier,
        "ready_at": warp.ready_at,
        "x_ready": list(warp.x_ready),
        "f_ready": list(warp.f_ready),
        "full": warp._full,
        "ipdom": [(e.mask.copy() if e.mask is not None else None,
                   e.pc, e.uniform) for e in warp.ipdom],
        "csrs": dict(warp.csrs),
        "group_key": warp.group_key,
        "iseq": warp._iseq,
        "lsu_replay": _dup(warp._lsu_replay),
    }


def _restore_warp(warp: Any, state: dict[str, Any]) -> None:
    warp.x = state["x"].copy()
    warp.f = state["f"].copy()
    warp.pc = state["pc"]
    warp.tmask = state["tmask"].copy()
    warp.active = state["active"]
    warp.at_barrier = state["at_barrier"]
    warp.ready_at = state["ready_at"]
    warp.x_ready = list(state["x_ready"])
    warp.f_ready = list(state["f_ready"])
    warp._full = state["full"]
    warp.ipdom = [
        IPDOMEntry(mask=m.copy() if m is not None else None,
                   pc=pc, uniform=uniform)
        for m, pc, uniform in state["ipdom"]
    ]
    warp.csrs = dict(state["csrs"])
    warp.csr_cache = {}  # pure memo; rebuilt lazily with identical values
    warp.group_key = state["group_key"]
    warp._iseq = state["iseq"]
    warp._lsu_replay = _dup(state["lsu_replay"])


def _capture_core(core: Any) -> dict[str, Any]:
    s = core.stats
    c = core.dcache.stats
    return {
        "stats": (s.instructions, s.cycles_active, s.idle_cycles,
                  s.lsu_stalls, s.lsu_replays, s.scoreboard_stalls,
                  s.barrier_waits, s.simt_instructions),
        "dcache_tags": [list(row) for row in core.dcache.tags],
        "dcache_lru": [list(row) for row in core.dcache.lru],
        "dcache_tick": core.dcache._tick,
        "dcache_stats": (c.accesses, c.hits, c.misses),
        "lsu_inflight": list(core.lsu_inflight),
        "lsu_busy_until": core.lsu_busy_until,
        "mshrs": dict(core.mshrs),
        "mshr_entries": list(core.mshr_entries),
        "purge_at": core._purge_at,
        "wc_buffer": dict(core.wc_buffer),
        "wc_stamp": core._wc_stamp,
        "issue_busy_until": core.issue_busy_until,
        "rr": core.rr,
        "barriers": {k: list(v) for k, v in core.barriers.items()},
        "stall": core._stall,
        "mshr_occupancy": core._mshr_occupancy,
        "warps": [_capture_warp(w) for w in core.warps],
    }


def _restore_core(core: Any, state: dict[str, Any]) -> None:
    (i, ca, ic, ls, lr, ss, bw, si) = state["stats"]
    core.stats = CoreStats(
        instructions=i, cycles_active=ca, idle_cycles=ic, lsu_stalls=ls,
        lsu_replays=lr, scoreboard_stalls=ss, barrier_waits=bw,
        simt_instructions=si,
    )
    core.dcache.tags = [list(row) for row in state["dcache_tags"]]
    core.dcache.lru = [list(row) for row in state["dcache_lru"]]
    core.dcache._tick = state["dcache_tick"]
    acc, hits, misses = state["dcache_stats"]
    core.dcache.stats = CacheStats(accesses=acc, hits=hits, misses=misses)
    core.lsu_inflight = list(state["lsu_inflight"])
    core.lsu_busy_until = state["lsu_busy_until"]
    core.mshrs = dict(state["mshrs"])
    core.mshr_entries = list(state["mshr_entries"])
    core._purge_at = state["purge_at"]
    core.wc_buffer = dict(state["wc_buffer"])
    core._wc_stamp = state["wc_stamp"]
    core.issue_busy_until = state["issue_busy_until"]
    core.rr = state["rr"]
    core.barriers = {k: list(v) for k, v in state["barriers"].items()}
    core._stall = state["stall"]
    core._mshr_occupancy = state["mshr_occupancy"]
    for warp, wstate in zip(core.warps, state["warps"]):
        _restore_warp(warp, wstate)


def _delta_indices(mem: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Byte indices where ``mem`` differs from ``base``.

    This scan dominates snapshot cost: a byte-wise compare of the 64 MiB
    device memory runs ~50 ms. Comparing as uint64 words first is ~3x
    cheaper (8x fewer comparisons; the per-element index extraction then
    touches only the handful of dirty words)."""
    if len(mem) % 8:
        return np.flatnonzero(mem != base)
    words = np.flatnonzero(mem.view(np.uint64) != base.view(np.uint64))
    if not len(words):
        return words
    cand = (words[:, None] * 8 + np.arange(8)).ravel()
    return cand[mem[cand] != base[cand]]


def capture_state(machine: Any, now: int) -> dict[str, Any]:
    """Snapshot the machine at a main-loop cycle boundary.

    ``now`` must be the next cycle the main loop would execute; the
    machine must have been launched with checkpointing armed (so the
    post-marshal memory baseline exists).
    """
    mem = machine.memory.data
    base = machine._ckpt_baseline
    idx = _delta_indices(mem, base)
    dram = machine.dram
    return {
        "now": int(now),
        "config": machine.config.label(),
        "ndrange": (tuple(machine._ndrange.global_size),
                    tuple(machine._ndrange.local_size)),
        "program_sha": machine._ckpt_program_sha,
        "baseline_digest": machine._ckpt_baseline_digest,
        "mem_idx": idx,
        "mem_val": mem[idx].copy(),
        "printf": list(machine.printf_output),
        "skip_stats": dict(machine.skip_stats),
        "dram": {
            "bank_free": list(dram.bank_free),
            "open_rows": [list(t) for t in dram.open_rows],
            "stats": (dram.stats.requests, dram.stats.row_hits,
                      dram.stats.row_misses),
            "evict_seed": dram._evict_seed,
        },
        "group_remaining": dict(machine._group_remaining),
        "group_slot": dict(machine._group_slot),
        "slot_free": [list(row) for row in machine._slot_free],
        "pending": list(machine._pending),
        "next_group_key": machine._next_group_key,
        "dispatch_cursor": machine._dispatch_cursor,
        "groups_dispatched": machine._groups_dispatched,
        "active_warps": machine._active_warps,
        "dispatch_blocked": machine._dispatch_blocked,
        "frozen_until": list(machine._frozen_until),
        "cores": [_capture_core(c) for c in machine.cores],
    }


def verify_resume(machine: Any, ndrange: Any, state: dict[str, Any]) -> None:
    """All resume preconditions, checked before any mutation so a
    failed verification leaves the machine launchable from scratch."""
    if state.get("config") != machine.config.label():
        raise CheckpointError(
            f"snapshot was taken on config {state.get('config')!r}, "
            f"machine is {machine.config.label()!r}"
        )
    want = (tuple(ndrange.global_size), tuple(ndrange.local_size))
    if tuple(map(tuple, state.get("ndrange", ()))) != want:
        raise CheckpointError(
            f"snapshot ndrange {state.get('ndrange')} != launch {want}"
        )
    sha = program_fingerprint(machine._image, machine.config)
    if state.get("program_sha") != sha:
        raise CheckpointError("snapshot program fingerprint mismatch "
                              "(kernel or decode changed)")
    if state.get("baseline_digest") != baseline_digest(machine.memory.data):
        raise CheckpointError("snapshot memory baseline mismatch "
                              "(marshalled arguments differ)")
    if len(state.get("cores", ())) != len(machine.cores):
        raise CheckpointError("snapshot core count mismatch")


def restore_state(machine: Any, state: dict[str, Any]) -> None:
    """Apply a verified snapshot. The machine's memory must hold the
    baseline image (freshly loaded + marshalled) — ``verify_resume``
    checked that."""
    mem = machine.memory.data
    mem[state["mem_idx"]] = state["mem_val"]
    machine.printf_output[:] = state["printf"]
    machine.skip_stats = dict(state["skip_stats"])
    d = state["dram"]
    dram = machine.dram
    dram.bank_free = list(d["bank_free"])
    dram.open_rows = [list(t) for t in d["open_rows"]]
    req, rh, rm = d["stats"]
    dram.stats = DRAMStats(requests=req, row_hits=rh, row_misses=rm)
    dram._evict_seed = d["evict_seed"]
    machine._group_remaining = dict(state["group_remaining"])
    machine._group_slot = dict(state["group_slot"])
    machine._slot_free = [list(row) for row in state["slot_free"]]
    machine._pending = list(state["pending"])
    machine._next_group_key = state["next_group_key"]
    machine._dispatch_cursor = state["dispatch_cursor"]
    machine._groups_dispatched = state["groups_dispatched"]
    machine._active_warps = state["active_warps"]
    machine._dispatch_blocked = state["dispatch_blocked"]
    machine._frozen_until[:] = state["frozen_until"]
    for core, cstate in zip(machine.cores, state["cores"]):
        _restore_core(core, cstate)


# ----------------------------------------------------------------------
# On-disk store.
# ----------------------------------------------------------------------


class CheckpointStore:
    """Directory of snapshot files with atomic, fsynced writes
    (:func:`repro.durable.atomic_write`) and verified loads.

    Besides snapshots the directory holds a ``hits.log`` (one appended
    JSON line per successful resume — the durable checkpoint-hit
    counter the CI kill drill asserts on) and ``*.once`` claim markers
    used by the deterministic preemption test hook.
    """

    HITS_LOG = "hits.log"

    def __init__(self, root: str | os.PathLike,
                 fingerprint: str | None = None,
                 sweep_age_s: float | None = durable.TMP_GC_AGE_S):
        self.root = Path(root)
        self.fingerprint = (code_fingerprint() if fingerprint is None
                            else fingerprint)
        self.corrupt_dropped = 0
        self.stale_dropped = 0
        self.root.mkdir(parents=True, exist_ok=True)
        if sweep_age_s is not None:
            self.sweep_tmp(sweep_age_s)

    def path(self, point_id: str) -> Path:
        return self.root / (_slug(point_id) + ".ckpt")

    def save(self, point_id: str, state: dict[str, Any],
             level: int = 1) -> Path:
        payload = zlib.compress(pickle.dumps(state, protocol=4), level)
        header = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            "point": point_id,
            "cycle": int(state["now"]),
            "payload_len": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        blob = json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        path = self.path(point_id)
        durable.atomic_write(path, blob, fsync=True)
        return path

    def load(self, point_id: str) -> dict[str, Any] | None:
        """Return the verified state tree, or ``None`` (meaning: run
        from scratch). Corrupt or version/fingerprint-skewed files are
        unlinked and counted, never restored."""
        path = self.path(point_id)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        stale = False
        try:
            nl = raw.index(b"\n")
            header = json.loads(raw[:nl].decode())
            if (header.get("magic") != SNAPSHOT_MAGIC
                    or header.get("version") != SNAPSHOT_VERSION
                    or header.get("fingerprint") != self.fingerprint):
                stale = True
                raise ValueError("snapshot version/fingerprint skew")
            if header.get("point") != point_id:
                raise ValueError("snapshot point-id mismatch")
            payload = raw[nl + 1:]
            if (len(payload) != header.get("payload_len")
                    or hashlib.sha256(payload).hexdigest()
                    != header.get("payload_sha256")):
                raise ValueError("snapshot payload checksum mismatch")
            return pickle.loads(zlib.decompress(payload))
        except Exception:
            if stale:
                self.stale_dropped += 1
            else:
                self.corrupt_dropped += 1
            self.discard(point_id)
            return None

    def discard(self, point_id: str) -> None:
        try:
            os.unlink(self.path(point_id))
        except OSError:
            pass

    def record_hit(self, point_id: str, cycle: int) -> None:
        """Durable, append-only resume counter (cross-process safe:
        O_APPEND single-write lines)."""
        line = json.dumps({"point": point_id, "cycle": int(cycle)}) + "\n"
        fd = os.open(self.root / self.HITS_LOG,
                     os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def hit_count(self) -> int:
        try:
            with open(self.root / self.HITS_LOG, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    def claim_once(self, tag: str) -> bool:
        """Cross-process once-only marker (:func:`repro.durable.claim`,
        as the fault plan's firing budget) — arms one-shot test hooks so
        a resumed or re-simulated launch cannot re-fire them."""
        return durable.claim(self.root / (_slug(tag) + ".once"))

    def sweep_tmp(self, max_age_s: float) -> int:
        """Unlink orphaned snapshot temp files (a crash mid-save leaks
        one) older than ``max_age_s``; returns the count."""
        return durable.sweep_tmp(self.root, "*", max_age_s)


# ----------------------------------------------------------------------
# Per-point plan and per-launch control.
# ----------------------------------------------------------------------


class CheckpointControl:
    """What one ``Machine.launch``/``resume`` sees: where to write its
    snapshots and when to yield. Created by :class:`CheckpointPlan`."""

    __slots__ = ("store", "launch_id", "every_cycles", "deadline_at",
                 "stop_file", "preempt_at_cycle", "saves", "adaptive",
                 "on_stretch", "_prev_save_end")

    def __init__(self, store: CheckpointStore, launch_id: str,
                 every_cycles: int = DEFAULT_EVERY_CYCLES,
                 deadline_at: float | None = None,
                 stop_file: str | None = None,
                 preempt_at_cycle: int | None = None,
                 adaptive: bool = False,
                 on_stretch=None):
        self.store = store
        self.launch_id = launch_id
        self.every_cycles = max(1, int(every_cycles))
        self.deadline_at = deadline_at
        self.stop_file = stop_file
        self.preempt_at_cycle = preempt_at_cycle
        self.saves = 0
        #: adapt the cadence to measured snapshot cost (defaulted
        #: cadences only — an explicit ``every_cycles`` is a contract).
        self.adaptive = adaptive
        self.on_stretch = on_stretch
        self._prev_save_end = time.perf_counter()

    def due_preempt(self, now: int, run_start: int) -> bool:
        """Polled at checkpoint boundaries; any True yields a snapshot
        plus :class:`SimulationPreempted`."""
        if (self.preempt_at_cycle is not None
                and run_start < self.preempt_at_cycle <= now
                and self.store.claim_once(f"{self.launch_id}.preempt")):
            return True
        if self.stop_file is not None and os.path.exists(self.stop_file):
            return True
        if self.deadline_at is not None \
                and time.monotonic() >= self.deadline_at:
            return True
        return False

    def save(self, machine: Any, now: int) -> None:
        start = time.perf_counter()
        self.store.save(self.launch_id, capture_state(machine, now),
                        level=HOT_COMPRESS_LEVEL)
        end = time.perf_counter()
        self.saves += 1
        if self.adaptive and self.every_cycles < ADAPT_MAX_EVERY_CYCLES:
            cost = end - start
            since = max(start - self._prev_save_end, 0.0)
            if cost > ADAPT_TARGET_OVERHEAD * (since + cost):
                self.every_cycles = min(self.every_cycles * 2,
                                        ADAPT_MAX_EVERY_CYCLES)
                if self.on_stretch is not None:
                    self.on_stretch(self.every_cycles)
        self._prev_save_end = end

    def note_resumed(self, cycle: int) -> None:
        self.store.record_hit(self.launch_id, cycle)


class CheckpointPlan:
    """One experiment point's checkpoint policy: a store, a stable
    point id, and the shared preemption budget. Each kernel launch of
    the point gets its own sequenced launch id (``<point>.L<n>``) so a
    multi-launch benchmark resumes exactly the launch it was preempted
    in — earlier launches re-simulate deterministically from the
    result cache of host-side buffers."""

    def __init__(self, store: CheckpointStore, point_id: str,
                 every_cycles: int | None = None,
                 deadline_s: float | None = None,
                 stop_file: str | None = None,
                 preempt_at_cycle: int | None = None):
        self.store = store
        self.point_id = point_id
        #: a defaulted cadence is a heuristic, not a contract — controls
        #: built from this plan may stretch it (doubling whenever one
        #: snapshot exceeds ``ADAPT_TARGET_OVERHEAD`` of the interval
        #: since the last) and report the stretch back here so later
        #: launches of the point start at the adapted cadence.
        self.adaptive = every_cycles is None
        self.every_cycles = int(every_cycles or DEFAULT_EVERY_CYCLES)
        self.deadline_at = (time.monotonic() + deadline_s
                            if deadline_s is not None else None)
        self.stop_file = stop_file
        self.preempt_at_cycle = preempt_at_cycle
        self.hits = 0
        self._seq = 0

    @classmethod
    def from_spec(cls, spec: dict[str, Any] | None) -> "CheckpointPlan | None":
        """Build a plan from the picklable wire format the engine ships
        to workers: ``{"dir", "point_id", "every", "deadline_s",
        "stop_file", "preempt_at_cycle"}`` (all but the first two
        optional)."""
        if not spec:
            return None
        store = CheckpointStore(spec["dir"], sweep_age_s=None)
        return cls(
            store,
            spec["point_id"],
            every_cycles=spec.get("every"),
            deadline_s=spec.get("deadline_s"),
            stop_file=spec.get("stop_file"),
            preempt_at_cycle=spec.get("preempt_at_cycle"),
        )

    def next_control(self) -> CheckpointControl:
        launch_id = f"{self.point_id}.L{self._seq}"
        self._seq += 1
        return CheckpointControl(
            self.store, launch_id,
            every_cycles=self.every_cycles,
            deadline_at=self.deadline_at,
            stop_file=self.stop_file,
            preempt_at_cycle=self.preempt_at_cycle,
            adaptive=self.adaptive,
            on_stretch=self._note_stretch,
        )

    def _note_stretch(self, every_cycles: int) -> None:
        self.every_cycles = every_cycles


def checkpoint_spec(root: str | os.PathLike, point_id: str,
                    every: int | None, point_timeout: float | None,
                    stop_file: str | None = None) -> dict[str, Any]:
    """The spec :meth:`CheckpointPlan.from_spec` reads, for a point
    that snapshots under ``root`` every ``every`` simulated cycles
    (``None``: the adaptive default cadence).

    Under an engine watchdog of ``point_timeout`` seconds the point
    yields a snapshot at 80% of that budget, before the watchdog would
    kill it without one; ``stop_file`` makes it yield as soon as that
    file exists.
    """
    return {"dir": str(root), "point_id": point_id, "every": every,
            "deadline_s": point_timeout * 0.8 if point_timeout else None,
            "stop_file": stop_file}
