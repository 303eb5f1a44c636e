"""Checkpoint/restore for the SimX machine: preemptible simulations.

A snapshot captures the *complete* mutable state of a mid-flight
:class:`~.machine.Machine`: every attribute of each warp, core, data
cache and the DRAM except the wiring between them (:data:`WIRING`), the
machine's own dispatcher and counter state (:data:`MACHINE_STATE`), and
the memory image itself, as the nonzero 8-byte words of device memory.
A field added to a warp, core, cache or the DRAM is thus captured
without a change here; one added to the machine itself must join
:data:`MACHINE_STATE`. Restoring a snapshot and running to completion
is byte-identical to a never-checkpointed run — the golden-trace suite
and the round-trip tests in ``tests/test_checkpoint.py`` pin this.

A snapshot restores only onto its configuration and its launch. The
launch identity is :attr:`~.mem.Memory.host_crc`, the running crc32 of
every host write into device memory: the program, the ``printf``
strings, the NDRange descriptor, the argument block and the buffers.
Arming a launch therefore records nothing and copies nothing.

Snapshot files are a single JSON header line (magic, format version,
source fingerprint, point id, cycle, payload length + sha256) followed
by a pickle of the state tree. Writes go through
:func:`repro.durable.atomic_write` with the file fsynced; loads
verify every header field and degrade to ``None`` — a clean re-run —
on corruption or version/fingerprint skew, unlinking the bad file.

Cooperative preemption: ``Machine.launch(checkpoint=...)`` polls a
:class:`CheckpointPlan` at a coarse cycle cadence; when the plan's
deadline passes (or its stop file appears), the machine writes a
snapshot and raises :class:`~...errors.SimulationPreempted` instead of
being SIGKILLed by the engine watchdog. The engine requeues preempted
points without charging a retry as long as the snapshot cycle
advances; the next attempt resumes from the snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
from pathlib import Path
from typing import Any

import numpy as np

from ... import durable
from ...errors import CheckpointError
from ...fingerprint import code_fingerprint
from .mem import Memory

#: First line of every snapshot file.
SNAPSHOT_MAGIC = "repro-simx-snapshot"

#: Bump whenever the state tree captured below changes shape. Old
#: snapshots are then rejected (and unlinked) instead of misrestored.
#: v2: ``baseline_sha`` (sha256) became ``baseline_digest`` (crc32).
#: v3: ``skip_stats`` holds only ``ff_windows``/``ff_cycles``, which now
#: count the all-stalled jump.
#: v4: an uncompressed pickle of every non-wiring attribute, with the
#: whole ``VortexConfig``.
#: v5: a core holds ``_mshr_at``; a warp's ``_iseq`` counts every issue
#: of the launch (``instructions``/``cycles_active`` fold from it).
#: v6: one wake-up horizon per core (``_due``) replaces
#: ``_frozen_until``; a core holds its unbooked idle run (``_idle_from``);
#: ``skip_stats`` holds only ``ff_cycles``.
#: v7: a warp holds one 64-entry ``scoreboard`` in place of
#: ``x_ready``/``f_ready``, and a replay memo without its lane count; a
#: core holds ``free_warps``, and its write-combining buffer keeps its
#: lines in write order (``_wc_stamp`` is gone).
#: v8: a core's ``lsu_inflight`` and ``mshr_entries`` are heaps, an MSHR
#: entry carries its line, ``_mshr_at`` is gone and ``_mshr_epoch``
#: counts MSHR releases; a warp's replay memo holds the epoch it was
#: turned away at.
#: v9: the memory image is the nonzero 8-byte words of device memory,
#: not a delta against a post-marshal copy; the launch identity
#: ``host_crc`` replaces ``ndrange``, ``program_sha`` and
#: ``baseline_digest``.
SNAPSHOT_VERSION = 9

#: Default snapshot cadence in simulated cycles.
DEFAULT_EVERY_CYCLES = 2_000_000

#: The machine polls the plan (deadline / stop file) at least this
#: often even when ``every_cycles`` is larger, so preemption latency is
#: bounded by wall-clock, not by the snapshot cadence.
CHECK_INTERVAL = 16_384


def _slug(point_id: str) -> str:
    safe = re.sub(r"[^\w.+-]", "_", point_id)[:80]
    digest = hashlib.sha256(point_id.encode()).hexdigest()[:8]
    return f"{safe}-{digest}"


# ----------------------------------------------------------------------
# State capture / restore (duck-typed over Machine to avoid an import
# cycle).
# ----------------------------------------------------------------------

#: Attributes that wire the machine's objects together, hold the
#: decoded program or view other state (a warp's register rows).
#: Everything else a warp, core, data cache or the DRAM holds is state:
#: captured, and restored into the live object.
WIRING = frozenset({"machine", "config", "warps", "dcache", "_fetch",
                    "_code", "_orders", "xr", "fr"})

#: The machine's own state: dispatcher bookkeeping, the per-core
#: wake-up horizons and counters (its memory, DRAM and cores are
#: captured separately).
MACHINE_STATE = ("printf_output", "skip_stats", "_group_remaining",
                 "_group_slot", "_slot_free", "_pending", "_next_group_key",
                 "_dispatch_cursor", "_groups_dispatched", "_active_warps",
                 "_dispatch_blocked", "_due")


def _fields(obj: Any) -> dict[str, Any]:
    return {k: v for k, v in vars(obj).items() if k not in WIRING}


def capture_state(machine: Any, now: int) -> dict[str, Any]:
    """Snapshot the machine at a main-loop cycle boundary.

    ``now`` must be the next cycle the main loop would execute. The
    memory image is the nonzero 8-byte words of device memory, so a
    snapshot grows with what the host and the kernel wrote, not with
    the 64 MiB device. The tree references the live state, so it must
    be pickled before the machine runs on.
    """
    words = machine.memory.data.view(np.uint64)
    idx = np.flatnonzero(words != 0)
    return {
        "now": int(now),
        "config": machine.config,
        "host_crc": machine.memory.host_crc,
        "mem_idx": idx,
        "mem_val": words[idx],
        "machine": {name: getattr(machine, name) for name in MACHINE_STATE},
        "dram": _fields(machine.dram),
        "cores": [(_fields(core), _fields(core.dcache),
                   [_fields(warp) for warp in core.warps])
                  for core in machine.cores],
    }


def verify_resume(machine: Any, state: dict[str, Any]) -> None:
    """All resume preconditions, checked before any mutation so a
    failed verification leaves the machine launchable from scratch:
    the same configuration, and the same launch identity, which
    ``Machine.launch`` has completed with the NDRange descriptor."""
    if state.get("config") != machine.config:
        raise CheckpointError(
            f"snapshot was taken on {state.get('config')!r}, "
            f"machine is {machine.config!r}"
        )
    if state.get("host_crc") != machine.memory.host_crc:
        raise CheckpointError(
            "snapshot launch identity mismatch (program, launch "
            "geometry or marshalled inputs differ)")


def restore_state(machine: Any, state: dict[str, Any]) -> None:
    """Apply a verified snapshot. The memory image goes into a fresh
    :class:`~.mem.Memory` (its untouched pages are never mapped) that
    keeps the snapshot's identity and replaces ``machine.memory``;
    every reader looks the memory up on the machine at each access.
    The other objects are updated in place, so the wiring between them
    (a core's warp scan orders, its bound fetch) stays valid; each
    warp's register rows are rebound to its restored files."""
    memory = Memory(machine.memory.size)
    memory.data.view(np.uint64)[state["mem_idx"]] = state["mem_val"]
    memory.host_crc = state["host_crc"]
    machine.memory = memory
    for name, value in state["machine"].items():
        setattr(machine, name, value)
    vars(machine.dram).update(state["dram"])
    for core, (fields, dcache, warps) in zip(machine.cores, state["cores"]):
        vars(core).update(fields)
        vars(core.dcache).update(dcache)
        for warp, wfields in zip(core.warps, warps):
            vars(warp).update(wfields)
            warp.bind_rows()


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

    def save(self, point_id: str, state: dict[str, Any]) -> Path:
        payload = pickle.dumps(state, protocol=4)
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
            return pickle.loads(payload)
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
# Per-point plan.
# ----------------------------------------------------------------------


class CheckpointPlan:
    """One experiment point's checkpoint policy: a store, a stable
    point id, the snapshot cadence and the shared preemption budget.

    Each kernel launch of the point gets its own sequenced launch id
    (``<point>.L<n>``, set by :meth:`begin_launch`) so a multi-launch
    benchmark resumes exactly the launch it was preempted in — earlier
    launches re-simulate deterministically. ``Machine.launch`` asks the
    plan for its snapshot, polls it, saves through it and reports a
    resume to it."""

    def __init__(self, store: CheckpointStore, point_id: str,
                 every_cycles: int | None = None,
                 deadline_s: float | None = None,
                 stop_file: str | None = None,
                 preempt_at_cycle: int | None = None):
        self.store = store
        self.point_id = point_id
        self.every_cycles = max(1, int(every_cycles or DEFAULT_EVERY_CYCLES))
        self.deadline_at = (time.monotonic() + deadline_s
                            if deadline_s is not None else None)
        self.stop_file = stop_file
        self.preempt_at_cycle = preempt_at_cycle
        self.launch_id: str | None = None
        self._seq = 0

    @classmethod
    def from_spec(cls, spec: dict[str, Any], point_id: str
                  ) -> "CheckpointPlan":
        """Build the plan for ``point_id`` from the picklable wire format
        the engine ships to workers (see :func:`checkpoint_spec`)."""
        return cls(
            CheckpointStore(spec["dir"], sweep_age_s=None),
            point_id,
            every_cycles=spec.get("every"),
            deadline_s=spec.get("deadline_s"),
            stop_file=spec.get("stop_file"),
            preempt_at_cycle=spec.get("preempt_at_cycle"),
        )

    def begin_launch(self, machine: Any) -> dict[str, Any] | None:
        """Advance to the point's next kernel launch and return its
        snapshot if one verifies against ``machine`` (loaded, marshalled
        and about to run), else ``None``: run from scratch. A snapshot
        that fails verification is discarded."""
        self.launch_id = f"{self.point_id}.L{self._seq}"
        self._seq += 1
        state = self.store.load(self.launch_id)
        if state is not None:
            try:
                verify_resume(machine, state)
            except CheckpointError:
                self.store.discard(self.launch_id)
                return None
        return state

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
        self.store.save(self.launch_id, capture_state(machine, now))

    def note_resumed(self, cycle: int) -> None:
        self.store.record_hit(self.launch_id, cycle)


def checkpoint_spec(root: str | os.PathLike, every: int | None,
                    point_timeout: float | None,
                    stop_file: str | None = None) -> dict[str, Any]:
    """The spec :meth:`CheckpointPlan.from_spec` reads, for points that
    snapshot under ``root`` every ``every`` simulated cycles (``None``:
    :data:`DEFAULT_EVERY_CYCLES`). The point that runs it names its
    snapshots.

    Under an engine watchdog of ``point_timeout`` seconds the point
    yields a snapshot at 80% of that budget, before the watchdog would
    kill it without one; ``stop_file`` makes it yield as soon as that
    file exists. A test may add ``preempt_at_cycle``: each launch then
    yields once at the first boundary at or past that cycle.
    """
    return {"dir": str(root), "every": every,
            "deadline_s": point_timeout * 0.8 if point_timeout else None,
            "stop_file": stop_file}
