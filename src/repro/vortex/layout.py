"""Device memory map of the simulated Vortex platform.

The runtime and the code generator agree on these addresses; they model
the Vortex kernel ABI (argument block + NDRange descriptor in device
memory, per-thread stacks, per-group local-memory windows).
"""

from __future__ import annotations

#: Kernel argument block: one 32-bit word per kernel parameter
#: (scalars by value, buffers by device address).
ARG_BASE = 0x0000_4000

#: NDRange descriptor: gsize[3], lsize[3], num_groups[3] (9 words).
NDR_BASE = 0x0000_4800
NDR_GSIZE_OFF = 0
NDR_LSIZE_OFF = 12
NDR_NGROUPS_OFF = 24

#: printf format strings (NUL-terminated, 4-byte aligned).
FMT_BASE = 0x0000_8000
FMT_LIMIT = 0x0001_0000

#: Kernel code.
CODE_BASE = 0x0001_0000

#: Device buffer heap (cl buffers are allocated here).
HEAP_BASE = 0x0010_0000
HEAP_LIMIT = 0x0200_0000

#: Local-memory windows: one per (core, group slot).
LOCAL_BASE = 0x0200_0000
LOCAL_WINDOW_SIZE = 0x0001_0000  # 64 KiB per concurrent group
LOCAL_LIMIT = 0x0280_0000

#: Per-thread stacks (private arrays, spills, printf staging).
STACK_BASE = 0x0280_0000
STACK_SIZE_PER_THREAD = 0x1000  # 4 KiB
STACK_LIMIT = 0x0300_0000

#: Total simulated DRAM.
MEM_SIZE = 0x0400_0000  # 64 MiB

#: Launch ceilings of the two finite regions: one local window per
#: concurrent group slot (core x warp) and one stack frame per thread.
MAX_GROUP_SLOTS = (LOCAL_LIMIT - LOCAL_BASE) // LOCAL_WINDOW_SIZE
MAX_SIM_THREADS = (STACK_LIMIT - STACK_BASE) // STACK_SIZE_PER_THREAD


def launch_rejection(config) -> str | None:
    """Why a :class:`~repro.vortex.VortexConfig` cannot launch on this
    memory map, if so: ``"group-slots"`` or ``"stack-region"``."""
    if config.cores * config.warps > MAX_GROUP_SLOTS:
        return "group-slots"
    if config.total_threads > MAX_SIM_THREADS:
        return "stack-region"
    return None


def stack_top(global_thread_index: int) -> int:
    """Base (lowest address) of one thread's frame; frames grow upward."""
    addr = STACK_BASE + global_thread_index * STACK_SIZE_PER_THREAD
    if addr + STACK_SIZE_PER_THREAD > STACK_LIMIT:
        raise ValueError("too many threads for the stack region")
    return addr


def local_window(core: int, slot: int, slots_per_core: int) -> int:
    """Base address of the local-memory window of (core, group slot)."""
    index = core * slots_per_core + slot
    addr = LOCAL_BASE + index * LOCAL_WINDOW_SIZE
    if addr + LOCAL_WINDOW_SIZE > LOCAL_LIMIT:
        raise ValueError("too many concurrent groups for the local region")
    return addr
