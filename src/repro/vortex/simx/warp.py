"""Warp state: register files, thread mask, IPDOM stack, scoreboard.

The IPDOM (immediate-postdominator) stack implements the paper's
SPLIT/JOIN divergence scheme (§II-D): SPLIT pushes the original mask and
the not-taken side, JOIN pops — the taken path runs first, then the warp
is redirected to the not-taken path, then the original mask is restored
at the reconvergence point.

The scoreboard is one plain Python list of 64 entries, x0–x31 then
f0–f31 (decode numbers an f register ``32 + r``), so an instruction's
sources are one index tuple and its writeback one index whichever
files they name. The issue stage reads a handful of entries per cycle,
and numpy scalar indexing costs more than it saves at that access
pattern.

``Warp._full`` is the one execution-shape flag: it is kept in sync with
every thread-mask write, and the decoded handlers use it to choose
between a whole-row numpy write and a masked one. Warps of every width
take those same two forms.

The register files ``x``/``f`` are (32, T) arrays; ``xr``/``fr`` list
one row view per register, so a handler reads and writes a register
without building a fresh numpy view per access. Writes go *into* a row
(ufunc ``out=``, ``[...] =`` or ``np.copyto``) and never rebind it, so
each row stays a view of its own register. The rows are bound when a
warp first becomes active, by dispatch or ``wspawn`` (a warp that never
runs pays nothing), and rebound whenever ``x``/``f`` are replaced
(snapshot restore).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import SimulationError

#: Sentinel "ready" time for warps blocked at a barrier.
BLOCKED = 1 << 60


@dataclass
class IPDOMEntry:
    """One divergence-stack entry.

    ``uniform`` entries are markers pushed by a SPLIT that observed a
    uniform predicate; JOIN pops them and continues. Entries with a
    ``pc`` redirect the warp to the not-taken side; entries without
    restore the mask and fall through.
    """

    mask: np.ndarray | None
    pc: int | None
    uniform: bool = False


class Warp:
    def __init__(self, wid: int, num_threads: int):
        self.wid = wid
        self.num_threads = num_threads
        self.x = np.zeros((32, num_threads), dtype=np.int32)
        self.f = np.zeros((32, num_threads), dtype=np.float32)
        #: per-register row views of ``x``/``f`` (see :meth:`bind_rows`).
        self.xr: list[np.ndarray] | None = None
        self.fr: list[np.ndarray] | None = None
        self.pc = 0
        self.tmask = np.zeros(num_threads, dtype=bool)
        self.active = False
        self.at_barrier = False
        #: earliest cycle the warp may issue again (structural). Kept at
        #: ``BLOCKED`` whenever the warp is inactive or parked at a
        #: barrier, so the issue scan needs only this one comparison.
        self.ready_at = BLOCKED
        #: scoreboard: cycle each register's value becomes available,
        #: x0–x31 then f0–f31.
        self.scoreboard = [0] * 64
        #: True while every lane is active — kept in sync at each tmask
        #: write so handlers can take unmasked (whole-row) fast paths.
        self._full = False
        self.ipdom: list[IPDOMEntry] = []
        #: warp-level CSRs set by the dispatcher (group ids etc.).
        self.csrs: dict[int, int] = {}
        #: memoized CSR read vectors (everything but TMASK is constant
        #: for the lifetime of a dispatched group).
        self.csr_cache: dict[int, np.ndarray] = {}
        #: the group this warp is working on (machine bookkeeping).
        self.group_key: object = None
        #: instructions this warp has issued (incremented by Core.tick,
        #: never reset): the source of the core's folded ``instructions``
        #: counter, and what validates the LSU replay memo below.
        self._iseq = 0
        #: memoized address/line computation for a load being replayed:
        #: (iseq, pc, core MSHR epoch, addrs, items). Valid only when the
        #: very next issue of this warp is the same load at the same pc.
        self._lsu_replay: tuple | None = None
        #: per-lane bit weights for tmask <-> integer conversions.
        self._lane_bits = 1 << np.arange(num_threads, dtype=np.int64)

    def bind_rows(self) -> None:
        """(Re)bind ``xr``/``fr`` to the rows of the current ``x``/``f``."""
        self.xr = list(self.x)
        self.fr = list(self.f)

    def reset_for_group(self, pc: int, tmask: np.ndarray, csrs: dict[int, int],
                        sp_values: np.ndarray) -> None:
        if self.xr is None:
            self.bind_rows()
        self.x.fill(0)
        self.f.fill(0)
        self.x[2] = sp_values  # stack pointers, one per lane
        self.pc = pc
        self.tmask = tmask.copy()
        self._full = np.count_nonzero(tmask) == self.num_threads
        self.active = True
        self.at_barrier = False
        self.ready_at = 0
        self.scoreboard = [0] * 64
        self.ipdom.clear()
        self.csrs = dict(csrs)
        self.csr_cache = {}
        self._lsu_replay = None

    def halt(self) -> None:
        self.active = False
        self.at_barrier = False
        self.ready_at = BLOCKED

    # -- divergence stack -------------------------------------------------

    def push_uniform_marker(self) -> None:
        self.ipdom.append(IPDOMEntry(mask=None, pc=None, uniform=True))

    def push_divergence(self, orig_mask: np.ndarray, else_mask: np.ndarray,
                        else_pc: int) -> None:
        self.ipdom.append(IPDOMEntry(mask=orig_mask.copy(), pc=None))
        self.ipdom.append(IPDOMEntry(mask=else_mask.copy(), pc=else_pc))

    def pop_join(self) -> IPDOMEntry:
        if not self.ipdom:
            raise SimulationError(
                f"warp {self.wid}: JOIN with empty IPDOM stack at pc "
                f"{self.pc:#x} (unbalanced divergence — miscompiled kernel)"
            )
        return self.ipdom.pop()

    # -- helpers ------------------------------------------------------------

    def first_active_lane(self) -> int:
        lanes = np.nonzero(self.tmask)[0]
        if len(lanes) == 0:
            raise SimulationError(
                f"warp {self.wid}: no active lanes at pc {self.pc:#x}"
            )
        return int(lanes[0])

    def tmask_bits(self) -> int:
        return int(self._lane_bits[self.tmask].sum())

    def set_tmask_bits(self, bits: int) -> None:
        self.tmask = (bits & self._lane_bits) != 0
        self._full = np.count_nonzero(self.tmask) == self.num_threads
