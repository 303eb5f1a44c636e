"""Vortex device backend: the PoCL-style runtime of the paper's Fig. 5.

``VortexBackend`` plugs into the OpenCL-style host API: building a kernel
validates it; launching JIT-compiles it for the launch geometry (PoCL
also specializes work-group sizes), loads the image into a fresh
simulated device, marshals buffers into the device heap, runs the
cycle-level simulator and copies buffers back.

Compiled images are cached once per process, per (kernel, global size,
local size, T), mirroring PoCL's program cache: every backend and job of
a process that launches the same kernel object on the same geometry
shares one image (and the decoded program SimX keeps with it). The
cache holds up to :data:`IMAGE_CACHE_SIZE` images and evicts the least
recently used one past that.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from ..errors import RuntimeLaunchError
from ..ocl.host import CompiledKernel, DeviceBackend, LaunchStats
from ..ocl.ir import Kernel
from ..ocl.ndrange import NDRange
from ..ocl.types import FLOAT32, INT32, is_pointer
from ..ocl.validate import validate
from . import layout
from .codegen import VortexKernelImage, compile_kernel
from .simx.config import VortexConfig
from .simx.machine import Machine

_HEAP_ALIGN = 64

#: Most compiled images the process keeps (Table I compiles 41).
IMAGE_CACHE_SIZE = 64

#: (kernel, global size, local size, T) -> image, least recently used
#: first. Keyed by the kernel object, not id(kernel): the key keeps the
#: kernel alive, so a later kernel can never reuse its id and be handed
#: this image.
_images: OrderedDict[tuple, VortexKernelImage] = OrderedDict()
_images_lock = threading.Lock()


class VortexBackend(DeviceBackend):
    """The soft-GPU approach: kernels run as binaries on simulated
    Vortex hardware."""

    name = "vortex"

    def __init__(self, config: VortexConfig | None = None,
                 max_cycles: int = 200_000_000, profiler=None,
                 launch_hook=None, checkpoint=None):
        self.config = config if config is not None else VortexConfig()
        self.max_cycles = max_cycles
        #: optional :class:`repro.profiling.Profiler`; every launch on
        #: this backend records cycle-bucket samples and group spans.
        self.profiler = profiler
        #: optional ``hook(machine, result)`` called after every launch
        #: completes and buffers are copied back — the golden-trace
        #: harness uses it to digest the final device state.
        self.launch_hook = launch_hook
        #: optional :class:`repro.vortex.simx.checkpoint.CheckpointPlan`;
        #: every launch then snapshots on the plan's cadence, resumes
        #: from an existing snapshot when one verifies, and yields
        #: :class:`~repro.errors.SimulationPreempted` past the plan's
        #: deadline instead of being killed by the engine watchdog.
        self.checkpoint = checkpoint

    def build(self, kernel: Kernel) -> "VortexCompiledKernel":
        validate(kernel)
        return VortexCompiledKernel(kernel, self)

    def compile_for(self, kernel: Kernel, ndrange: NDRange
                    ) -> VortexKernelImage:
        """The process's image of ``kernel`` for ``ndrange`` on this
        backend's T, compiled on first use."""
        threads = self.config.threads
        key = (kernel, ndrange.global_size, ndrange.local_size, threads)
        with _images_lock:
            image = _images.get(key)
            if image is not None:
                _images.move_to_end(key)
                return image
            image = compile_kernel(kernel, ndrange, threads=threads)
            _images[key] = image
            if len(_images) > IMAGE_CACHE_SIZE:
                _images.popitem(last=False)
        return image


class VortexCompiledKernel(CompiledKernel):
    def __init__(self, kernel: Kernel, backend: VortexBackend):
        super().__init__(kernel)
        self.backend = backend

    def launch(self, args: list[Any], ndrange: NDRange) -> LaunchStats:
        kernel = self.kernel
        if len(args) != len(kernel.params):
            raise RuntimeLaunchError(
                f"kernel {kernel.name} expects {len(kernel.params)} args"
            )
        image = self.backend.compile_for(kernel, ndrange)

        machine = Machine(self.backend.config,
                          profiler=self.backend.profiler)
        if machine.profiler.enabled:
            machine.profiler.set_meta("kernel", kernel.name)
        machine.load_image(image)

        # Marshal arguments: buffers into the heap, scalars by value.
        heap = layout.HEAP_BASE
        arg_words = np.zeros(max(1, len(kernel.params)), dtype=np.int32)
        buffers: list[tuple[int, np.ndarray]] = []
        for param, arg in zip(kernel.params, args):
            if is_pointer(param.ty):
                if not isinstance(arg, np.ndarray) or arg.ndim != 1:
                    raise RuntimeLaunchError(
                        f"arg {param.name!r} must be a 1-D numpy array"
                    )
                want = (np.int32 if param.ty.element is INT32
                        else np.float32)
                if arg.dtype != want:
                    raise RuntimeLaunchError(
                        f"arg {param.name!r}: dtype {arg.dtype} != "
                        f"{np.dtype(want)}"
                    )
                nbytes = arg.nbytes
                if heap + nbytes > layout.HEAP_LIMIT:
                    raise RuntimeLaunchError("device heap exhausted")
                machine.memory.write_bytes(heap, arg.view(np.uint8))
                buffers.append((heap, arg))
                arg_words[param.index] = np.int32(heap)
                heap += (nbytes + _HEAP_ALIGN - 1) & ~(_HEAP_ALIGN - 1)
            elif param.ty is FLOAT32:
                arg_words[param.index] = np.float32(arg).view(np.int32)
            else:
                arg_words[param.index] = np.int32(
                    int(arg) & 0xFFFFFFFF if int(arg) >= 0 else int(arg)
                )
        if kernel.params:
            machine.memory.write_words(layout.ARG_BASE, arg_words)

        # Every host write above went through Memory.write_bytes, so
        # memory.host_crc now identifies this launch's program and
        # inputs: a snapshot resumes only onto the same identity.
        result = machine.launch(ndrange, max_cycles=self.backend.max_cycles,
                                checkpoint=self.backend.checkpoint)

        # Copy buffers back (device-visible writes land in host arrays).
        for addr, arr in buffers:
            raw = machine.memory.read_bytes(addr, arr.nbytes)
            arr[:] = np.frombuffer(raw, dtype=arr.dtype)

        if self.backend.launch_hook is not None:
            self.backend.launch_hook(machine, result)

        counters = result.counters
        return LaunchStats(
            kernel_name=kernel.name,
            backend=self.backend.name,
            cycles=result.cycles,
            dynamic_instructions=result.instructions,
            printf_output=result.printf_output,
            extra={
                **counters,
                "config": self.backend.config.label(),
                "time_ms": result.time_ms(self.backend.config.clock_mhz),
                "static_instructions": image.num_instructions,
                "dcache_hit_rate": _rate(counters["dcache.hits"],
                                         counters["dcache.accesses"]),
                "dram_row_hit_rate": _rate(counters["dram.row_hits"],
                                           counters["dram.requests"]),
            },
        )


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
