"""Infrastructure tests: the memory map, the Vortex runtime's buffer
management and image cache, and the CLI entry point."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import RuntimeLaunchError
from repro.ocl import Context, GLOBAL_FLOAT32, INT32, KernelBuilder, NDRange
from repro.vortex import VortexBackend, VortexConfig, layout


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


def _copy_kernel():
    b = KernelBuilder("copy")
    src = b.param("src", GLOBAL_FLOAT32)
    dst = b.param("dst", GLOBAL_FLOAT32)
    n = b.param("n", INT32)
    gid = b.global_id(0)
    with b.if_(b.lt(gid, n)):
        b.store(dst, gid, b.load(src, gid))
    return b.finish()


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

