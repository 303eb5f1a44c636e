"""Infrastructure tests: the memory map, the Vortex runtime's buffer
management and image cache, and the CLI entry point."""

import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import RuntimeLaunchError
from repro.harness import sweep
from repro.harness.defaults import FIG7_BENCHMARKS
from repro.harness.dse import run_dse
from repro.harness.sweep import (
    fig7_problem,
    fig7_profile,
    fig7_workload,
    sweep_point,
)
from repro.ocl import Context, GLOBAL_FLOAT32, INT32, KernelBuilder, NDRange
from repro.vortex import VortexBackend, VortexConfig, layout, runtime
from repro.vortex.simx import machine as simx_machine


class TestLayout:
    def test_regions_do_not_overlap(self):
        regions = [
            (layout.ARG_BASE, layout.NDR_BASE),
            (layout.FMT_BASE, layout.FMT_LIMIT),
            (layout.HEAP_BASE, layout.HEAP_LIMIT),
            (layout.LOCAL_BASE, layout.LOCAL_LIMIT),
            (layout.STACK_BASE, layout.STACK_LIMIT),
        ]
        spans = sorted(regions)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b
        assert spans[-1][1] <= layout.MEM_SIZE

    def test_stack_top_bounds(self):
        assert layout.stack_top(0) == layout.STACK_BASE
        max_threads = (layout.STACK_LIMIT - layout.STACK_BASE) \
            // layout.STACK_SIZE_PER_THREAD
        layout.stack_top(max_threads - 1)  # fits
        with pytest.raises(ValueError):
            layout.stack_top(max_threads)

    def test_local_window_bounds(self):
        base0 = layout.local_window(0, 0, 16)
        base1 = layout.local_window(0, 1, 16)
        assert base1 - base0 == layout.LOCAL_WINDOW_SIZE
        with pytest.raises(ValueError):
            layout.local_window(1000, 15, 16)

    def test_max_supported_machine_fits(self):
        cfg = VortexConfig(cores=4, warps=16, threads=16)
        layout.stack_top(cfg.total_threads - 1)
        layout.local_window(cfg.cores - 1, cfg.warps - 1, cfg.warps)
        assert layout.launch_rejection(cfg) is None

    @pytest.mark.parametrize("config, reason", [
        (VortexConfig(cores=64, warps=64, threads=32), "group-slots"),
        (VortexConfig(cores=4, warps=32, threads=32), "stack-region"),
    ])
    def test_refused_config_fails_before_cycle_zero(self, config, reason):
        """A machine the memory map cannot hold refuses the launch,
        typed and naming the region, instead of failing mid-dispatch."""
        assert layout.launch_rejection(config) == reason
        ctx = Context(VortexBackend(config))
        prog = ctx.program([_copy_kernel()])
        src = ctx.buffer(np.ones(16, dtype=np.float32))
        dst = ctx.buffer(np.zeros(16, dtype=np.float32))
        with pytest.raises(RuntimeLaunchError, match=reason):
            prog.launch("copy", [src, dst, 16], 16, 16)


def _copy_kernel():
    b = KernelBuilder("copy")
    src = b.param("src", GLOBAL_FLOAT32)
    dst = b.param("dst", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        b.store(dst, gid, b.load(src, gid))
    return b.finish()


def _structure(kernel):
    """``kernel``'s params, arrays, blocks and instructions, with the
    identity of every object and every operand."""
    return (
        kernel.format(),
        [(id(p), p.name, p.index) for p in kernel.params],
        [id(a) for a in kernel.arrays],
        [(id(block), [(id(ins), ins.block is block,
                       [id(arg) for arg in ins.args],
                       [id(target) for target in ins.targets])
                      for ins in block.instrs])
         for block in kernel.blocks],
    )


class TestVortexRuntime:
    def test_image_cache_reuses_compilation(self):
        backend = VortexBackend(VortexConfig(cores=1, warps=2, threads=4))
        kernel = _copy_kernel()
        ndr = NDRange.create(32, 8)
        img1 = backend.compile_for(kernel, ndr)
        img2 = backend.compile_for(kernel, ndr)
        assert img1 is img2
        img3 = backend.compile_for(kernel, NDRange.create(64, 8))
        assert img3 is not img1

    def test_image_cache_pins_its_kernels(self):
        """A freed kernel's id() can be reused by a new kernel, which
        would then be handed the freed kernel's image; the cache must
        keep every kernel it holds an image for alive."""
        backend = VortexBackend(VortexConfig(cores=1, warps=2, threads=4))
        kernel = _copy_kernel()
        backend.compile_for(kernel, NDRange.create(32, 8))
        ref = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert ref() is not None

    def test_image_cache_evicts_least_recently_used(self, monkeypatch):
        """Past the bound the least recently used image goes, and with
        it the cache's hold on its kernel."""
        monkeypatch.setattr(runtime, "_images", OrderedDict())
        monkeypatch.setattr(runtime, "IMAGE_CACHE_SIZE", 2)
        backend = VortexBackend(VortexConfig(cores=1, warps=2, threads=4))
        ndr = NDRange.create(32, 8)
        first, second, third = (_copy_kernel() for _ in range(3))
        image = backend.compile_for(first, ndr)
        backend.compile_for(second, ndr)
        assert backend.compile_for(first, ndr) is image  # now most recent
        backend.compile_for(third, ndr)  # one past the bound
        assert backend.compile_for(first, ndr) is image
        assert [key[0] for key in runtime._images] == [third, first]
        ref = weakref.ref(second)
        del second
        gc.collect()
        assert ref() is None

    def test_cells_share_one_compile_and_decode(self, monkeypatch):
        """Cells that differ only in cores or warps launch one image:
        the process compiles and decodes it once."""
        monkeypatch.setattr(runtime, "_images", OrderedDict())
        calls = {"compile": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runtime, "compile_kernel",
                            counted("compile", runtime.compile_kernel))
        monkeypatch.setattr(simx_machine, "decode_program",
                            counted("decode", simx_machine.decode_program))
        # T = 4 and a 16-item work-group on both.
        small = sweep_point("vecadd", VortexConfig(cores=1, warps=4,
                                                   threads=4), 256)
        large = sweep_point("vecadd", VortexConfig(cores=2, warps=8,
                                                   threads=4), 256)
        assert calls == {"compile": 1, "decode": 1}
        assert small != large

    def test_shared_kernel_unchanged_by_use(self):
        """A Figure 7 benchmark's kernel is built once per process and
        shared; no cell, profile or screen changes it."""
        sweep._fig7_profile.cache_clear()  # profile the kernel here
        for benchmark in FIG7_BENCHMARKS:
            problem = fig7_problem(benchmark, 256)
            kernel = fig7_workload(benchmark, problem)[0]
            before = _structure(kernel)
            sweep_point(benchmark, VortexConfig(cores=1, warps=2,
                                                threads=2), 256)
            fig7_profile(benchmark, 256)
            run_dse(benchmark, n=256, core_counts=(1,), confirm="none")
            assert fig7_workload(benchmark, problem)[0] is kernel
            assert _structure(kernel) == before

    def test_heap_exhaustion(self):
        backend = VortexBackend(VortexConfig(cores=1, warps=2, threads=4))
        ctx = Context(backend)
        prog = ctx.program([_copy_kernel()])
        heap_words = (layout.HEAP_LIMIT - layout.HEAP_BASE) // 4
        big = ctx.buffer(np.zeros(heap_words // 2 + 64, dtype=np.float32))
        other = ctx.buffer(np.zeros(heap_words // 2 + 64, dtype=np.float32))
        with pytest.raises(RuntimeLaunchError, match="heap"):
            prog.launch("copy", [big, other, 4], 4, 4)

    def test_scalar_float_args_pass_by_bits(self):
        from repro.ocl import FLOAT32

        b = KernelBuilder("addc")
        dst = b.param("dst", GLOBAL_FLOAT32)
        c = b.param("c", FLOAT32)
        b.store(dst, b.global_id(0), c)
        kernel = b.finish()
        ctx = Context(VortexBackend(VortexConfig(cores=1, warps=2,
                                                 threads=4)))
        prog = ctx.program([kernel])
        dst_buf = ctx.alloc(4)
        prog.launch("addc", [dst_buf, 1.25], 4, 4)
        np.testing.assert_array_equal(dst_buf.read(),
                                      np.full(4, 1.25, dtype=np.float32))

    def test_negative_scalar_int(self):
        b = KernelBuilder("negc")
        from repro.ocl import GLOBAL_INT32

        dst = b.param("dst", GLOBAL_INT32)
        c = b.param("c", INT32)
        b.store(dst, b.global_id(0), c)
        kernel = b.finish()
        ctx = Context(VortexBackend(VortexConfig(cores=1, warps=2,
                                                 threads=4)))
        prog = ctx.program([kernel])
        dst_buf = ctx.alloc(4, np.int32)
        prog.launch("negc", [dst_buf, -123], 4, 4)
        assert (dst_buf.read() == -123).all()


class TestCLI:
    def test_main_table4(self, capsys):
        from repro.__main__ import main

        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "max relative error" in out

    def test_main_table2(self, capsys):
        from repro.__main__ import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Original code" in out and "auto-CSE" in out

    def test_main_rejects_unknown(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bogus"])


class TestDisassemblyGolden:
    """A stable disassembly snapshot guards codegen regressions."""

    def test_copy_kernel_disassembly(self):
        from repro.vortex import compile_kernel

        image = compile_kernel(_copy_kernel(), NDRange.create(32, 8),
                               threads=8)
        text = image.disassembly()
        # Structure, not exact bytes: prologue loads 3 args, the guard is
        # a fused split+beq, the body is flw/fsw, the warp halts.
        assert text.count("lw x") == 3
        for fragment in ("csrrs", "split", "beq", "flw", "fsw", "halt"):
            assert fragment in text, fragment
        # 8 threads / 8-item groups: single full wave, no wave loop.
        assert "tmc" not in text

