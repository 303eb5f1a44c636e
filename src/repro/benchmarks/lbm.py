"""Lbm — D3Q19 lattice-Boltzmann stream-and-collide step (Parboil).

Nineteen distribution loads (periodic pull streaming, modulo-wrapped
neighbour indices) plus nineteen stores per cell: the benchmark that most
spectacularly exhausts HLS BRAM in Table I — every one of its ~40 access
sites gets its own load/store unit.
"""

from __future__ import annotations

import numpy as np

from ..ocl import GLOBAL_FLOAT32, INT32, KernelBuilder
from .suite import Benchmark, register

#: D3Q19 velocity set and weights.
C = [
    (0, 0, 0),
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
    (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
    (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
]
W = [1.0 / 3.0] + [1.0 / 18.0] * 6 + [1.0 / 36.0] * 12
OMEGA = 1.2


def build():
    b = KernelBuilder("lbm_stream_collide")
    src = b.param("src", GLOBAL_FLOAT32)  # 19 x ncells
    dst = b.param("dst", GLOBAL_FLOAT32)
    nx = b.param("nx", INT32)
    ny = b.param("ny", INT32)
    nz = b.param("nz", INT32)
    x = b.global_id(0)
    y = b.global_id(1)
    z = b.global_id(2)
    ncells = b.mul(b.mul(nx, ny), nz)
    idx = b.add(b.add(b.mul(b.mul(z, ny), nx), b.mul(y, nx)), x)

    # Pull streaming: f_q(x) <- f_q(x - c_q), periodic.
    fs = []
    for q, (cx, cy, cz) in enumerate(C):
        sx = b.rem(b.add(b.sub(x, cx), nx), nx)
        sy = b.rem(b.add(b.sub(y, cy), ny), ny)
        sz = b.rem(b.add(b.sub(z, cz), nz), nz)
        sidx = b.add(b.add(b.mul(b.mul(sz, ny), nx), b.mul(sy, nx)), sx)
        fs.append(b.load(src, b.add(b.mul(q, ncells), sidx)))

    # Moments.
    rho = fs[0]
    for f in fs[1:]:
        rho = b.add(rho, f)
    ux = b.const(0.0)
    uy = b.const(0.0)
    uz = b.const(0.0)
    for q, (cx, cy, cz) in enumerate(C):
        if cx:
            ux = b.add(ux, b.mul(fs[q], float(cx)))
        if cy:
            uy = b.add(uy, b.mul(fs[q], float(cy)))
        if cz:
            uz = b.add(uz, b.mul(fs[q], float(cz)))
    inv_rho = b.div(b.const(1.0), rho)
    ux = b.mul(ux, inv_rho)
    uy = b.mul(uy, inv_rho)
    uz = b.mul(uz, inv_rho)
    usqr = b.add(b.add(b.mul(ux, ux), b.mul(uy, uy)), b.mul(uz, uz))

    # BGK collision and store.
    for q, (cx, cy, cz) in enumerate(C):
        cu = b.const(0.0)
        if cx:
            cu = b.add(cu, b.mul(ux, float(cx)))
        if cy:
            cu = b.add(cu, b.mul(uy, float(cy)))
        if cz:
            cu = b.add(cu, b.mul(uz, float(cz)))
        feq = b.mul(
            b.mul(b.const(W[q]), rho),
            b.add(
                b.add(b.const(1.0), b.mul(b.const(3.0), cu)),
                b.sub(b.mul(b.const(4.5), b.mul(cu, cu)),
                      b.mul(b.const(1.5), usqr)),
            ),
        )
        out_val = b.sub(fs[q], b.mul(b.const(OMEGA), b.sub(fs[q], feq)))
        b.store(dst, b.add(b.mul(q, ncells), idx), out_val)
    return [b.finish()]


def workload(scale: int = 1, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    nx, ny, nz = 4 * scale, 4 * scale, 2 * scale
    ncells = nx * ny * nz
    f = (rng.random((19, ncells), dtype=np.float32) * 0.1
         + np.array(W, dtype=np.float32)[:, None])
    return {"nx": nx, "ny": ny, "nz": nz, "src": f.reshape(-1).copy()}


def run(ctx, prog, wl) -> dict:
    nx, ny, nz = wl["nx"], wl["ny"], wl["nz"]
    src = ctx.buffer(wl["src"])
    dst = ctx.alloc(19 * nx * ny * nz)
    prog.launch("lbm_stream_collide", [src, dst, nx, ny, nz],
                global_size=(nx, ny, nz), local_size=(4, 2, 1))
    return {"dst": dst.read()}


def reference(wl) -> dict:
    nx, ny, nz = wl["nx"], wl["ny"], wl["nz"]
    f = wl["src"].reshape(19, nz, ny, nx).astype(np.float64)
    streamed = np.empty_like(f)
    for q, (cx, cy, cz) in enumerate(C):
        streamed[q] = np.roll(f[q], shift=(cz, cy, cx), axis=(0, 1, 2))
    rho = streamed.sum(axis=0)
    cvec = np.array(C, dtype=np.float64)
    ux = np.tensordot(cvec[:, 0], streamed, axes=(0, 0)) / rho
    uy = np.tensordot(cvec[:, 1], streamed, axes=(0, 0)) / rho
    uz = np.tensordot(cvec[:, 2], streamed, axes=(0, 0)) / rho
    usqr = ux * ux + uy * uy + uz * uz
    out = np.empty_like(streamed)
    for q, (cx, cy, cz) in enumerate(C):
        cu = cx * ux + cy * uy + cz * uz
        feq = W[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usqr)
        out[q] = streamed[q] - OMEGA * (streamed[q] - feq)
    return {"dst": out.astype(np.float32).reshape(-1)}


register(Benchmark(
    name="lbm",
    table_name="Lbm",
    source="parboil",
    tags=frozenset({"strided", "compute", "bram_heavy"}),
    build=build,
    workload=workload,
    run=run,
    reference=reference,
    tolerance=1e-3,
))
