"""Warp state: register files, thread mask, IPDOM stack, scoreboard.

The IPDOM (immediate-postdominator) stack implements the paper's
SPLIT/JOIN divergence scheme (§II-D): SPLIT pushes the original mask and
the not-taken side, JOIN pops — the taken path runs first, then the warp
is redirected to the not-taken path, then the original mask is restored
at the reconvergence point.

The scoreboards (``x_ready``/``f_ready``) are plain Python lists: the
issue stage reads a handful of entries per cycle and numpy scalar
indexing costs more than it saves at that access pattern.

``Warp._full`` is the one execution-shape flag: it is kept in sync with
every thread-mask write, and the decoded handlers use it to choose
between a whole-row numpy write and a masked one. Warps of every width
take those same two forms.
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
        self.pc = 0
        self.tmask = np.zeros(num_threads, dtype=bool)
        self.active = False
        self.at_barrier = False
        #: earliest cycle the warp may issue again (structural). Kept at
        #: ``BLOCKED`` whenever the warp is inactive or parked at a
        #: barrier, so the issue scan needs only this one comparison.
        self.ready_at = BLOCKED
        #: scoreboard: cycle each register's value becomes available.
        self.x_ready = [0] * 32
        self.f_ready = [0] * 32
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
        #: issue sequence number (incremented by Core.tick per issue);
        #: used to validate the LSU replay memo below.
        self._iseq = 0
        #: memoized address/line computation for a load being replayed:
        #: (iseq, pc, active_addrs, lanes, items). Valid only when the
        #: very next issue of this warp is the same load at the same pc.
        self._lsu_replay: tuple | None = None
        #: per-lane bit weights for tmask <-> integer conversions.
        self._lane_bits = 1 << np.arange(num_threads, dtype=np.int64)

    def reset_for_group(self, pc: int, tmask: np.ndarray, csrs: dict[int, int],
                        sp_values: np.ndarray) -> None:
        self.x.fill(0)
        self.f.fill(0)
        self.x[2] = sp_values  # stack pointers, one per lane
        self.pc = pc
        self.tmask = tmask.copy()
        self._full = bool(tmask.all())
        self.active = True
        self.at_barrier = False
        self.ready_at = 0
        self.x_ready = [0] * 32
        self.f_ready = [0] * 32
        self.ipdom.clear()
        self.csrs = dict(csrs)
        self.csr_cache = {}
        self._iseq = 0
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
        self._full = bool(self.tmask.all())
