"""Set-associative write-through data cache (per core).

The LSU consults the cache per line: a hit costs the cache hit latency,
a miss goes to DRAM and fills the line (no-allocate on stores would be
an option; Vortex's cache allocates on both, which we follow). LRU
replacement via per-way timestamps.

A load first probes its lines (:meth:`Cache.probe`), which changes
nothing, and books them with :meth:`Cache.lookup` only once the MSHRs
accept it: a load turned away leaves no access, hit, miss or LRU
refresh behind.

The tag and LRU arrays are plain Python lists-of-lists: a lookup touches
one set of (typically) a few ways, where ``list.index`` beats a numpy
comparison-plus-nonzero round trip by an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    #: total lookups, counted independently of the hit/miss split so the
    #: ``hits + misses == accesses`` invariant is checkable.
    accesses: int = 0
    hits: int = 0
    misses: int = 0


class Cache:
    def __init__(self, size: int, ways: int, line_size: int):
        self.line_size = line_size
        self.ways = ways
        self.sets = size // (ways * line_size)
        self.tags: list[list[int]] = [[-1] * ways for _ in range(self.sets)]
        self.lru: list[list[int]] = [[0] * ways for _ in range(self.sets)]
        self._tick = 0
        self.stats = CacheStats()

    def probe(self, line_addr: int) -> bool:
        """True when the line is resident. Books nothing and leaves the
        LRU as it is."""
        line = line_addr // self.line_size
        return line // self.sets in self.tags[line % self.sets]

    def lookup(self, line_addr: int) -> bool:
        """True on hit; books the access and its hit or miss, and
        refreshes a hit's LRU. Does not fill."""
        line = line_addr // self.line_size
        set_idx = line % self.sets
        tag = line // self.sets
        self._tick += 1
        stats = self.stats
        stats.accesses += 1
        try:
            way = self.tags[set_idx].index(tag)
        except ValueError:
            stats.misses += 1
            return False
        self.lru[set_idx][way] = self._tick
        stats.hits += 1
        return True

    def fill(self, line_addr: int) -> None:
        line = line_addr // self.line_size
        set_idx = line % self.sets
        tag = line // self.sets
        self._tick += 1
        tag_row = self.tags[set_idx]
        lru_row = self.lru[set_idx]
        # If the tag is already resident (two outstanding misses on the
        # same line both filling), refresh that way instead of
        # allocating the line into a second one — duplicate residency
        # would silently halve the set's effective associativity.
        try:
            way = tag_row.index(tag)
        except ValueError:
            way = lru_row.index(min(lru_row))  # first-oldest, as argmin
            tag_row[way] = tag
        lru_row[way] = self._tick
