"""Particlefilter — the weight-update and resampling kernels (Rodinia).

The resampling ("find index") kernel scans the CDF for the first entry
covering each particle's random draw — written branch-free with
flag/select arithmetic, the restructuring real SIMT compilers expect
(and the paper's §IV-A divergence discussion motivates)."""

from __future__ import annotations

import numpy as np

from ..ocl import GLOBAL_FLOAT32, INT32, KernelBuilder
from .suite import Benchmark, register


def _weights_kernel():
    b = KernelBuilder("pf_weights")
    w = b.param("w", GLOBAL_FLOAT32)
    likelihood = b.param("likelihood", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        b.store(w, gid, b.mul(b.load(w, gid),
                              b.exp(b.load(likelihood, gid))))
    return b.finish()


def _find_index_kernel():
    b = KernelBuilder("pf_find_index")
    cdf = b.param("cdf", GLOBAL_FLOAT32)
    u = b.param("u", GLOBAL_FLOAT32)
    arrayX = b.param("arrayX", GLOBAL_FLOAT32)
    outX = b.param("outX", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        draw = b.load(u, gid)
        idx = b.var("idx", INT32, init=b.sub(n, 1))
        with b.for_range(0, n) as j:
            jj = b.sub(b.sub(n, 1), j)  # scan backwards
            covers = b.ge(b.load(cdf, jj), draw)
            idx.set(b.select(covers, jj, idx.get()))
        b.store(outX, gid, b.load(arrayX, idx.get()))
    return b.finish()


def build():
    return [_weights_kernel(), _find_index_kernel()]


def workload(scale: int = 1, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    n = 32 * scale
    return {
        "n": n,
        "w": np.full(n, 1.0 / n, dtype=np.float32),
        "likelihood": (rng.random(n, dtype=np.float32) * 2 - 1),
        "arrayX": rng.random(n, dtype=np.float32) * 10,
        "u_base": float(rng.random()) / n,
    }


def run(ctx, prog, wl) -> dict:
    n = wl["n"]
    w = ctx.buffer(wl["w"])
    likelihood = ctx.buffer(wl["likelihood"])
    prog.launch("pf_weights", [w, likelihood, n],
                global_size=n, local_size=8)
    # Normalise + CDF on the host (Rodinia does the same between kernels).
    weights = w.read().astype(np.float64)
    weights /= weights.sum()
    cdf_host = np.cumsum(weights).astype(np.float32)
    u_host = (wl["u_base"] + np.arange(n) / n).astype(np.float32)
    cdf = ctx.buffer(cdf_host)
    u = ctx.buffer(u_host)
    arrayX = ctx.buffer(wl["arrayX"])
    outX = ctx.alloc(n)
    prog.launch("pf_find_index", [cdf, u, arrayX, outX, n],
                global_size=n, local_size=8)
    return {"outX": outX.read()}


def reference(wl) -> dict:
    n = wl["n"]
    weights = (wl["w"].astype(np.float64)
               * np.exp(wl["likelihood"].astype(np.float32)).astype(
                   np.float32))
    weights /= weights.sum()
    cdf = np.cumsum(weights).astype(np.float32)
    u = (wl["u_base"] + np.arange(n) / n).astype(np.float32)
    out = np.empty(n, dtype=np.float32)
    for i in range(n):
        idx = n - 1
        for j in range(n - 1, -1, -1):
            if cdf[j] >= u[i]:
                idx = j
        out[i] = wl["arrayX"][idx]
    return {"outX": out}


register(Benchmark(
    name="particlefilter",
    table_name="Particlefilter",
    source="rodinia",
    tags=frozenset({"compute", "multi_kernel"}),
    build=build,
    workload=workload,
    run=run,
    reference=reference,
    tolerance=1e-3,
))
