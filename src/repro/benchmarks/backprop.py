"""Backprop — the paper's §III-B case study (Rodinia's
``bpnn_adjust_weights`` kernel, Fig. 6).

Three source variants mirror the paper's listings exactly:

* :func:`build` / :func:`build_original` — Listing 1: every product such
  as ``ETA * delta[index_x] * ly[index_y]`` is written out twice, so the
  kernel carries 12 burst-coalesced load sites + 4 stores and synthesizes
  to ~188% of the MX2100's BRAM — the Table I failure.
* :func:`build_o1` — Listing 2 ("variable reuse"): the main half loads
  each value once into a local variable (9 load sites, ~144%).
* :func:`build_o2` — Listing 3 ("pipelined load"): the reused loads take
  ``__pipelined_load`` units (4 burst-coalesced + 5 pipelined sites,
  ~83% — the first variant that fits the board).

The guarded half (the ``ty==0 && by==0`` bias update of the Rodinia
kernel) keeps its duplicated loads in O1, as in the paper's listings
which only rewrite the main half; O2 additionally pipelines the first
occurrence of each guarded load.
"""

from __future__ import annotations

import numpy as np

from ..ocl import GLOBAL_FLOAT32, INT32, KernelBuilder
from .suite import Benchmark, register

HEIGHT = 16  # BLOCK_SIZE in Rodinia
ETA = 0.3
MOMENTUM = 0.3


def _kernel(variant: str) -> KernelBuilder:
    """variant in {"original", "o1", "o2"}."""
    b = KernelBuilder("bpnn_adjust_weights")
    delta = b.param("delta", GLOBAL_FLOAT32)
    ly = b.param("ly", GLOBAL_FLOAT32)
    w = b.param("w", GLOBAL_FLOAT32)
    oldw = b.param("oldw", GLOBAL_FLOAT32)
    hid = b.param("hid", INT32)
    by = b.group_id(1)
    tx = b.local_id(0)
    ty = b.local_id(1)
    hid1 = b.add(hid, 1)
    index = b.add(
        b.add(
            b.add(b.mul(b.mul(hid1, HEIGHT), by), b.mul(hid1, ty)),
            b.add(tx, 1),
        ),
        hid1,
    )
    index_y = b.add(b.add(b.mul(HEIGHT, by), ty), 1)
    index_x = b.add(tx, 1)

    pipe_main = variant == "o2"
    if variant == "original":
        # Listing 1: every term recomputed, every load duplicated.
        t1 = b.add(
            b.mul(b.mul(b.const(ETA), b.load(delta, index_x)),
                  b.load(ly, index_y)),
            b.mul(b.const(MOMENTUM), b.load(oldw, index)),
        )
        b.store(w, index, b.add(b.load(w, index), t1))
        t2 = b.add(
            b.mul(b.mul(b.const(ETA), b.load(delta, index_x)),
                  b.load(ly, index_y)),
            b.mul(b.const(MOMENTUM), b.load(oldw, index)),
        )
        b.store(oldw, index, t2)
    else:
        # Listings 2/3: load once, reuse (O2 adds __pipelined_load).
        delta_value = b.mul(b.load(delta, index_x, pipelined=pipe_main),
                            b.const(ETA))
        ly_value = b.load(ly, index_y, pipelined=pipe_main)
        oldw_value = b.mul(b.load(oldw, index, pipelined=pipe_main),
                           b.const(MOMENTUM))
        delta_by_ly = b.add(b.mul(delta_value, ly_value), oldw_value)
        b.store(w, index, b.add(b.load(w, index), delta_by_ly))
        b.store(oldw, index, delta_by_ly)

    # The bias update of the Rodinia kernel (kept with duplicated loads
    # in every listing; O2 pipelines the first occurrences).
    with b.if_(b.logical_and(b.eq(ty, 0), b.eq(by, 0))):
        pipe_first = variant == "o2"
        t1 = b.add(
            b.mul(b.const(ETA),
                  b.load(delta, index_x, pipelined=pipe_first)),
            b.mul(b.const(MOMENTUM),
                  b.load(oldw, index_x, pipelined=pipe_first)),
        )
        b.store(w, index_x, b.add(b.load(w, index_x), t1))
        t2 = b.add(
            b.mul(b.const(ETA), b.load(delta, index_x)),
            b.mul(b.const(MOMENTUM), b.load(oldw, index_x)),
        )
        b.store(oldw, index_x, t2)
    return b


def build():
    return [_kernel("original").finish()]


def build_original():
    return build()


def build_o1():
    return [_kernel("o1").finish()]


def build_o2():
    return [_kernel("o2").finish()]


#: Launch geometry: Vortex work-groups are bounded by W*T, so the local
#: y extent is 4 (16x4 = 64-item groups); ``by``/``ty`` in the index
#: arithmetic refer to this geometry.
LOCAL_Y = 4


def workload(scale: int = 1, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    hid = HEIGHT  # hidden units; Rodinia uses 16
    nby = 2 * max(1, scale)  # work-groups in y
    wsize = (hid + 1) * HEIGHT * nby + 1
    return {
        "hid": hid,
        "nby": nby,
        "delta": rng.random(hid + 1, dtype=np.float32),
        "ly": rng.random(HEIGHT * nby + 1, dtype=np.float32),
        "w": rng.random(wsize, dtype=np.float32),
        "oldw": rng.random(wsize, dtype=np.float32),
    }


def run(ctx, prog, wl) -> dict:
    delta = ctx.buffer(wl["delta"])
    ly = ctx.buffer(wl["ly"])
    w = ctx.buffer(wl["w"])
    oldw = ctx.buffer(wl["oldw"])
    prog.launch(
        "bpnn_adjust_weights",
        [delta, ly, w, oldw, wl["hid"]],
        global_size=(HEIGHT, LOCAL_Y * wl["nby"]),
        local_size=(HEIGHT, LOCAL_Y),
    )
    return {"w": w.read(), "oldw": oldw.read()}


def reference(wl) -> dict:
    hid, nby = wl["hid"], wl["nby"]
    w = wl["w"].astype(np.float32).copy()
    oldw = wl["oldw"].astype(np.float32).copy()
    f = np.float32
    for by in range(nby):
        for ty in range(LOCAL_Y):
            for tx in range(HEIGHT):
                index = ((hid + 1) * HEIGHT * by + (hid + 1) * ty
                         + tx + 1 + (hid + 1))
                index_y = HEIGHT * by + ty + 1
                index_x = tx + 1
                t = f(f(f(f(ETA) * wl["delta"][index_x]) * wl["ly"][index_y])
                      + f(f(MOMENTUM) * oldw[index]))
                neww = f(w[index] + t)
                t2 = f(f(f(f(ETA) * wl["delta"][index_x])
                         * wl["ly"][index_y])
                       + f(f(MOMENTUM) * oldw[index]))
                w[index] = neww
                oldw[index] = t2
    # Bias update (ty == 0, by == 0).
    for tx in range(HEIGHT):
        index_x = tx + 1
        t = f(f(f(ETA) * wl["delta"][index_x])
              + f(f(MOMENTUM) * oldw[index_x]))
        w[index_x] = f(w[index_x] + t)
        oldw[index_x] = f(f(f(ETA) * wl["delta"][index_x])
                          + f(f(MOMENTUM) * oldw[index_x]))
    return {"w": w, "oldw": oldw}


register(Benchmark(
    name="backprop",
    table_name="Backprop",
    source="rodinia",
    tags=frozenset({"strided", "case_study"}),
    build=build,
    workload=workload,
    run=run,
    reference=reference,
    tolerance=1e-4,
))
