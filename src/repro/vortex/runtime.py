"""Vortex device backend: the PoCL-style runtime of the paper's Fig. 5.

``VortexBackend`` plugs into the OpenCL-style host API: building a kernel
validates it; launching JIT-compiles it for the launch geometry (PoCL
also specializes work-group sizes), loads the image into a fresh
simulated device, marshals buffers into the device heap, runs the
cycle-level simulator and copies buffers back.

Compiled images are cached per (kernel, geometry), mirroring PoCL's
program cache.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import CheckpointError, RuntimeLaunchError
from ..ocl.host import CompiledKernel, DeviceBackend, LaunchStats
from ..ocl.ir import Kernel
from ..ocl.ndrange import NDRange
from ..ocl.types import FLOAT32, INT32, is_pointer
from ..ocl.validate import validate
from . import layout
from .codegen import VortexKernelImage, compile_kernel
from .simx.config import VortexConfig
from .simx.machine import LaunchResult, Machine

_HEAP_ALIGN = 64


class VortexBackend(DeviceBackend):
    """The soft-GPU approach: kernels run as binaries on simulated
    Vortex hardware."""

    name = "vortex"

    def __init__(self, config: VortexConfig | None = None,
                 max_cycles: int = 200_000_000, optimize: bool = True,
                 trace: bool = False, profiler=None, launch_hook=None,
                 checkpoint=None):
        self.config = config if config is not None else VortexConfig()
        self.max_cycles = max_cycles
        self.optimize = optimize
        #: keep a per-instruction execution trace on every launch
        #: (debugging aid; surfaces in LaunchStats.extra["trace"]).
        self.trace = trace
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
        self._image_cache: dict[tuple, VortexKernelImage] = {}

    def build(self, kernel: Kernel) -> "VortexCompiledKernel":
        validate(kernel)
        return VortexCompiledKernel(kernel, self)

    def compile_for(self, kernel: Kernel, ndrange: NDRange
                    ) -> VortexKernelImage:
        # Keyed by the kernel object, not id(kernel): the key keeps the
        # kernel alive, so a later kernel can never reuse its id and be
        # handed this image.
        key = (kernel, ndrange.global_size, ndrange.local_size)
        image = self._image_cache.get(key)
        if image is None:
            image = compile_kernel(kernel, ndrange,
                                   threads=self.config.threads,
                                   optimize=self.optimize)
            self._image_cache[key] = image
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

        def assemble() -> tuple[Machine, list[tuple[int, np.ndarray]]]:
            """Fresh machine with image loaded and arguments marshalled.

            Deterministic given the same host arrays, so the
            post-marshal memory is the reproducible baseline snapshots
            delta-compress against — and reassembling after a failed
            resume verification yields a clean machine to launch.
            """
            machine = Machine(self.backend.config,
                              trace=self.backend.trace,
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
            return machine, buffers

        machine, buffers = assemble()
        plan = self.backend.checkpoint
        if plan is None:
            result: LaunchResult = machine.launch(
                ndrange, max_cycles=self.backend.max_cycles
            )
        else:
            ctl = plan.next_control()
            state = ctl.store.load(ctl.launch_id)
            if state is not None:
                try:
                    result = machine.resume(
                        ndrange, state,
                        max_cycles=self.backend.max_cycles,
                        checkpoint=ctl,
                    )
                    plan.hits += 1
                except CheckpointError:
                    # Mismatched snapshot (the store already dropped
                    # corrupt/stale files): degrade to a clean run.
                    ctl.store.discard(ctl.launch_id)
                    machine, buffers = assemble()
                    state = None
            if state is None:
                result = machine.launch(
                    ndrange, max_cycles=self.backend.max_cycles,
                    checkpoint=ctl,
                )
            # Completed: the snapshot is spent; a retry of this point
            # re-simulates this launch from scratch, deterministically.
            ctl.store.discard(ctl.launch_id)

        # Copy buffers back (device-visible writes land in host arrays).
        for addr, arr in buffers:
            raw = machine.memory.read_bytes(addr, arr.nbytes)
            arr[:] = np.frombuffer(raw, dtype=arr.dtype)

        if self.backend.launch_hook is not None:
            self.backend.launch_hook(machine, result)

        return LaunchStats(
            kernel_name=kernel.name,
            backend=self.backend.name,
            cycles=result.cycles,
            dynamic_instructions=result.instructions,
            printf_output=result.printf_output,
            extra={
                "config": self.backend.config.label(),
                "lsu_replays": result.extra.get("lsu_replays", 0),
                "lsu_stalls": result.lsu_stalls,
                "idle_cycles": result.idle_cycles,
                "dcache_hit_rate": result.dcache_hit_rate,
                "dram_row_hit_rate": result.dram_row_hit_rate,
                "groups_dispatched": result.groups_dispatched,
                "time_ms": result.time_ms(self.backend.config.clock_mhz),
                "static_instructions": image.num_instructions,
                **({"trace": machine.trace}
                   if machine.trace is not None else {}),
            },
        )
