#!/usr/bin/env python
"""Quickstart: one kernel, two FPGA execution flows.

Builds the OpenCL-style ``vecadd`` kernel once and runs it on:

1. the reference interpreter (the correctness oracle),
2. the Intel-HLS model (the kernel becomes a pipelined datapath; you get
   a synthesis area report and a pipeline cycle estimate),
3. the Vortex soft-GPU model (the kernel compiles to RISC-V+SIMT machine
   code and executes on a cycle-level simulator).

This is the paper's Figure 1 in ~60 lines: same source, two routes to
the FPGA.
"""

import numpy as np

from repro.ocl import Context, GLOBAL_FLOAT32, INT32, KernelBuilder, \
    ReferenceBackend
from repro.hls import HLSBackend, format_utilization
from repro.vortex import VortexBackend, VortexConfig


def build_vecadd():
    b = KernelBuilder("vecadd")
    a = b.param("a", GLOBAL_FLOAT32)
    bb = b.param("b", GLOBAL_FLOAT32)
    c = b.param("c", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        b.store(c, gid, b.add(b.load(a, gid), b.load(bb, gid)))
    return b.finish()


def main():
    kernel = build_vecadd()
    n = 1024
    rng = np.random.default_rng(0)
    a_host = rng.random(n, dtype=np.float32)
    b_host = rng.random(n, dtype=np.float32)
    expected = a_host + b_host

    backends = [
        ReferenceBackend(),
        HLSBackend(),
        VortexBackend(VortexConfig(cores=4, warps=4, threads=4)),
    ]
    for backend in backends:
        ctx = Context(backend)
        prog = ctx.program([kernel])
        a = ctx.buffer(a_host)
        b = ctx.buffer(b_host)
        c = ctx.alloc(n)
        stats = prog.launch("vecadd", [a, b, c, n],
                            global_size=n, local_size=16)
        ok = np.allclose(c.read(), expected)
        cycles = f"{stats.cycles:,}" if stats.cycles else "n/a"
        print(f"[{backend.name:>10}] correct={ok}  cycles={cycles}  "
              f"dyn-instrs={stats.dynamic_instructions:,}")
        if backend.name == "intel_hls":
            from repro.hls import estimate
            print(format_utilization(estimate(kernel), backend.device,
                                     title="  HLS area on " +
                                     backend.device.name))
        if backend.name == "vortex":
            print(f"  lsu stall cycles: {stats.extra['lsu_stalls']:,}, "
                  f"lsu replays: {stats.extra['lsu_replays']:,}, "
                  f"dcache hit rate: {stats.extra['dcache_hit_rate']:.1%}, "
                  f"dram row hit rate: "
                  f"{stats.extra['dram_row_hit_rate']:.1%}")


if __name__ == "__main__":
    main()
