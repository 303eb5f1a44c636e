"""Transpose — out[x][y] = in[y][x] (NVIDIA OpenCL SDK sample, naive).

The paper's Figure 7 describes it as "working with a two-dimensional
array, swapping values at opposite locations": coalesced loads, strided
(uncoalesced) stores. The second subject of the warp/thread sweep.
"""

from __future__ import annotations

import numpy as np

from ..ocl import GLOBAL_FLOAT32, INT32, KernelBuilder
from .suite import Benchmark, Sweep, register


def build():
    b = KernelBuilder("transpose")
    src = b.param("src", GLOBAL_FLOAT32)
    dst = b.param("dst", GLOBAL_FLOAT32)
    width = b.param("width", INT32)
    height = b.param("height", INT32)
    x = b.global_id(0)
    y = b.global_id(1)
    with b.if_(b.logical_and(b.lt(x, width), b.lt(y, height))):
        v = b.load(src, b.add(b.mul(y, width), x))
        b.store(dst, b.add(b.mul(x, height), y), v)
    return [b.finish()]


def workload(scale: int = 1, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    w = h = 16 * scale
    return {
        "width": w,
        "height": h,
        "src": rng.random(w * h, dtype=np.float32),
    }


def run(ctx, prog, wl) -> dict:
    w, h = wl["width"], wl["height"]
    src = ctx.buffer(wl["src"])
    dst = ctx.alloc(w * h)
    prog.launch("transpose", [src, dst, w, h],
                global_size=(w, h), local_size=(8, 2))
    return {"dst": dst.read()}


def reference(wl) -> dict:
    w, h = wl["width"], wl["height"]
    return {"dst": wl["src"].reshape(h, w).T.reshape(-1).copy()}


def sweep_problem(n: int) -> tuple[int, int]:
    """The square matrix nearest ``n`` elements, its side a multiple of
    16 and at least 16: n = 16 ... 992 all run the same 16x16 matrix."""
    dim = int(round(n ** 0.5))
    side = max(dim - dim % 16, 16)
    return (side, side)


def sweep_inputs(problem, rng) -> list:
    width, height = problem
    return [rng.random(width * height, dtype=np.float32),
            np.zeros(width * height, dtype=np.float32), width, height]


def sweep_geometry(problem, lanes):
    """PoCL clamps the work-group to what the device runs at once: up
    to a 4x4 tile, so every W x T >= 16 launches the same geometry."""
    lx = min(4, lanes)
    return problem, (lx, max(1, min(4, lanes // lx)))


register(Benchmark(
    name="transpose",
    table_name="Transpose",
    source="nvidia_sdk",
    tags=frozenset({"strided"}),
    build=build,
    workload=workload,
    run=run,
    reference=reference,
    sweep=Sweep(problem=sweep_problem, inputs=sweep_inputs,
                geometry=sweep_geometry),
))
