"""Open-row DRAM timing model with a per-bank row table.

All cores share one DRAM. Line addresses interleave across banks; each
bank keeps a small table of open rows (modelling the memory controller's
reorder window / bank-group parallelism): a request to an open row costs
``row_hit_cycles`` of bank service time, anything else pays
``row_miss_cycles`` (precharge + activate) and replaces a table entry.
Bank service is serialised per bank, and every access pays the fixed
pipeline ``latency`` on top.

This is the mechanism behind the paper's Figure 7 shape: a few streaming
warps keep their rows open (vecadd's small configurations), while many
interleaved streams — more warps × threads in flight — exceed the row
table and collapse into row thrashing, which the paper reports as LSU
stalls growing with warp/thread counts. Strided patterns (transpose's
stores) never enjoy row locality and are latency-bound instead, which
added warps help hide.

Replacement within the row table is deterministic pseudo-random (hashed),
because true LRU degenerates under cyclic multi-stream interleavings and
real controllers approximate random/age hybrids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DRAMConfig


@dataclass
class DRAMStats:
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0


class DRAM:
    def __init__(self, config: DRAMConfig, line_size: int):
        self.config = config
        self.line_size = line_size
        self.bank_free: list[int] = [0] * config.banks
        #: per-bank open-row tables.
        self.open_rows: list[list[int]] = [
            [] for _ in range(config.banks)
        ]
        self.stats = DRAMStats()
        self._evict_seed = 0x9E3779B9

    def access(self, line_addr: int, now: int) -> int:
        """Issue one line request; returns the completion cycle."""
        cfg = self.config
        line_index = line_addr // self.line_size
        bank = line_index % cfg.banks
        row = line_index // (cfg.banks * cfg.lines_per_row)
        self.stats.requests += 1
        table = self.open_rows[bank]
        if row in table:
            service = cfg.row_hit_cycles
            self.stats.row_hits += 1
        else:
            service = cfg.row_miss_cycles
            self.stats.row_misses += 1
            if len(table) < cfg.open_rows:
                table.append(row)
            else:
                # Deterministic pseudo-random victim.
                self._evict_seed = (self._evict_seed * 1103515245
                                    + 12345) & 0x7FFFFFFF
                table[self._evict_seed % len(table)] = row
        free = self.bank_free[bank]
        start = now if now > free else free
        done = start + service
        self.bank_free[bank] = done
        return done + cfg.latency
