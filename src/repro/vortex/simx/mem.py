"""Simulated device memory: a flat byte array with typed vector access.

One :class:`Memory` instance backs the whole device (all cores share it,
as on the real board). The runtime uses the byte-level helpers to load
code, arguments and buffers; atomics and ``printf`` use the scalar word
helpers. A core's LSU checks a warp's lane addresses in the same pass
that groups them by cache line (``Core._lsu_lines``, which defers to
:meth:`Memory._check_word` for the diagnostics), then gathers and
scatters whole lane rows through the ``words``/``floats`` views.

Host code writes device memory only through :meth:`Memory.write_bytes`
(``write_words`` defers to it): the image load, the ``printf`` format
strings, the NDRange descriptor, the argument block and the buffers.
Each write folds into :attr:`Memory.host_crc`, the launch identity a
snapshot resumes against (:mod:`.checkpoint`); a host write that went
around ``write_bytes`` would let a snapshot restore onto a launch it
was not taken on.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ...errors import TrapError
from .. import layout


class Memory:
    def __init__(self, size: int = layout.MEM_SIZE):
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        #: word views of ``data``, indexed by word (byte address >> 2).
        self.words = self.data.view(np.int32)
        self.floats = self.data.view(np.float32)
        #: running crc32 of every host write, in order (see
        #: :meth:`write_bytes`).
        self.host_crc = 0

    # -- host/runtime byte access ---------------------------------------

    def write_bytes(self, addr: int, data: bytes | np.ndarray) -> None:
        """The one host write path: store ``data`` at ``addr`` and fold
        ``(addr, length, data)`` into :attr:`host_crc`."""
        raw = np.frombuffer(bytes(data), dtype=np.uint8) \
            if isinstance(data, (bytes, bytearray)) else data.view(np.uint8)
        self._check_range(addr, len(raw))
        self.data[addr: addr + len(raw)] = raw
        self.host_crc = zlib.crc32(raw, zlib.crc32(
            struct.pack("<qq", addr, len(raw)), self.host_crc))

    def read_bytes(self, addr: int, length: int) -> bytes:
        self._check_range(addr, length)
        return self.data[addr: addr + length].tobytes()

    def write_words(self, addr: int, words: np.ndarray) -> None:
        raw = np.ascontiguousarray(words).view(np.uint8)
        self.write_bytes(addr, raw)

    def read_word(self, addr: int) -> int:
        # Scalar fast path: skip the vector-check array allocation.
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check_word(np.array([addr]))  # raises the right trap
        return int(self.words[addr >> 2])

    def write_word(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check_word(np.array([addr]))
        self.words[addr >> 2] = np.int32(value & 0xFFFFFFFF if value >= 0
                                          else value)

    def read_cstring(self, addr: int, limit: int = 4096) -> str:
        end = min(addr + limit, self.size)
        chunk = self.data[addr:end]
        nul = np.nonzero(chunk == 0)[0]
        if len(nul) == 0:
            raise TrapError(f"unterminated string at {addr:#x}")
        return chunk[: nul[0]].tobytes().decode("utf-8", errors="replace")

    # -- checks -----------------------------------------------------------

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self.size:
            raise TrapError(
                f"memory access [{addr:#x}, {addr + length:#x}) outside "
                f"device memory of {self.size:#x} bytes"
            )

    def _check_word(self, addrs: np.ndarray) -> None:
        """Trap on the first bad lane of a word-address row, range
        errors taking priority over alignment; return when every lane
        is a valid word address."""
        addrs_u = addrs if addrs.dtype == np.int64 else addrs.astype(np.int64)
        if len(addrs_u) == 0:
            return
        lo = int(addrs_u.min())
        hi = int(addrs_u.max())
        if lo >= 0 and hi + 4 <= self.size and not (addrs_u & 3).any():
            return
        if lo < 0 or hi + 4 > self.size:
            bad = addrs_u[(addrs_u < 0) | (addrs_u + 4 > self.size)][0]
            raise TrapError(f"memory access at {int(bad):#x} out of range")
        bad = addrs_u[(addrs_u & 3) != 0][0]
        raise TrapError(f"unaligned word access at {int(bad):#x}")
