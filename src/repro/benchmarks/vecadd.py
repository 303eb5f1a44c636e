"""Vecadd — element-wise vector addition (Vortex sample suite).

The paper's smallest benchmark: three streaming accesses, one fadd. Used
in Table I (coverage), Table III (HLS area: 1,065 BRAMs) and Figure 7
(the warp/thread sweep).
"""

from __future__ import annotations

import numpy as np

from ..ocl import GLOBAL_FLOAT32, INT32, KernelBuilder
from .suite import Benchmark, Sweep, register


def build():
    b = KernelBuilder("vecadd")
    a = b.param("a", GLOBAL_FLOAT32)
    c = b.param("b", GLOBAL_FLOAT32)
    out = b.param("c", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        b.store(out, gid, b.add(b.load(a, gid), b.load(c, gid)))
    return [b.finish()]


def workload(scale: int = 1, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    n = 256 * scale
    return {
        "n": n,
        "a": rng.random(n, dtype=np.float32),
        "b": rng.random(n, dtype=np.float32),
    }


def run(ctx, prog, wl) -> dict:
    a = ctx.buffer(wl["a"])
    b = ctx.buffer(wl["b"])
    c = ctx.alloc(wl["n"])
    prog.launch("vecadd", [a, b, c, wl["n"]],
                global_size=wl["n"], local_size=16)
    return {"c": c.read()}


def reference(wl) -> dict:
    return {"c": wl["a"] + wl["b"]}


def sweep_inputs(problem, rng) -> list:
    (n,) = problem
    return [rng.random(n, dtype=np.float32), rng.random(n, dtype=np.float32),
            np.zeros(n, dtype=np.float32), n]


register(Benchmark(
    name="vecadd",
    table_name="Vecadd",
    source="vortex",
    tags=frozenset({"streaming"}),
    build=build,
    workload=workload,
    run=run,
    reference=reference,
    # PoCL clamps the work-group to what the device runs at once: up to
    # 16 items, so every W x T >= 16 launches the same geometry.
    sweep=Sweep(
        problem=lambda n: (n,), inputs=sweep_inputs,
        geometry=lambda problem, lanes: (problem, (min(16, lanes),))),
))
