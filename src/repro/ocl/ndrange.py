"""NDRange decomposition.

OpenCL launches an N-dimensional grid of work items partitioned into
work-groups. :class:`NDRange` validates the launch geometry (local size
must evenly divide global size, per OpenCL 1.x, which is what both the
paper's flows target) and enumerates groups / local items in row-major
order with dimension 0 fastest — the same linearisation both backends use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import RuntimeLaunchError

_MAX_DIMS = 3


def _normalize(size: int | tuple[int, ...]) -> tuple[int, int, int]:
    if isinstance(size, int):
        size = (size,)
    dims = tuple(int(d) for d in size)
    if not 1 <= len(dims) <= _MAX_DIMS:
        raise RuntimeLaunchError(f"NDRange must have 1..3 dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise RuntimeLaunchError(f"NDRange dims must be positive, got {dims}")
    return dims + (1,) * (_MAX_DIMS - len(dims))


@dataclass(frozen=True)
class NDRange:
    """Launch geometry: global and local sizes, padded to 3 dimensions."""

    global_size: tuple[int, int, int]
    local_size: tuple[int, int, int]
    work_dim: int

    @staticmethod
    def create(
        global_size: int | tuple[int, ...],
        local_size: int | tuple[int, ...] | None = None,
    ) -> "NDRange":
        gsz_raw = (global_size,) if isinstance(global_size, int) else global_size
        work_dim = len(gsz_raw)
        gsz = _normalize(global_size)
        if local_size is None:
            lsz = (1, 1, 1)  # the Intel SDK's recommended single-work-item mode
        else:
            lsz = _normalize(local_size)
        for d in range(_MAX_DIMS):
            if gsz[d] % lsz[d] != 0:
                raise RuntimeLaunchError(
                    f"local size {lsz} does not divide global size {gsz} "
                    f"in dimension {d}"
                )
        return NDRange(gsz, lsz, work_dim)

    @property
    def num_groups(self) -> tuple[int, int, int]:
        return tuple(g // l for g, l in zip(self.global_size, self.local_size))  # type: ignore[return-value]

    @property
    def total_items(self) -> int:
        g = self.global_size
        return g[0] * g[1] * g[2]

    @property
    def items_per_group(self) -> int:
        l = self.local_size
        return l[0] * l[1] * l[2]

    def groups(self) -> Iterator[tuple[int, int, int]]:
        """Group ids, dimension 0 fastest (linear id = x + nx*(y + ny*z))."""
        nx, ny, nz = self.num_groups
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    yield (x, y, z)

    def local_items(self) -> Iterator[tuple[int, int, int]]:
        """Local ids within one group, dimension 0 fastest."""
        lx, ly, lz = self.local_size
        for z in range(lz):
            for y in range(ly):
                for x in range(lx):
                    yield (x, y, z)

    def global_id(
        self, group: tuple[int, int, int], local: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        return tuple(
            g * l + i for g, l, i in zip(group, self.local_size, local)
        )  # type: ignore[return-value]
