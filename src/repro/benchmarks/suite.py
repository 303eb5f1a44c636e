"""Benchmark registry and runners.

Each of the paper's 28 Table-I benchmarks is a module in this package
exposing the same contract:

* ``build()`` — the OpenCL program: a list of kernels built once and
  consumed *unmodified* by every backend (the paper's methodology:
  "identical source code, differing only in the kernel binaries");
* ``workload(scale, seed)`` — deterministic inputs;
* ``run(ctx, prog, wl)`` — the host driver (buffers, launches, reads);
* ``reference(wl)`` — a numpy golden model;
* optionally ``sweep`` — a :class:`Sweep`: the one definition of the
  benchmark's configuration-sweep cell, which the Figure 7 sweep, the
  calibration, the DSE and the service's ``fig7-cell`` jobs run
  (:mod:`repro.harness.sweep`). A benchmark without one cannot be swept.

``run_benchmark`` compiles and executes one benchmark on one backend and
validates outputs against the reference.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..errors import CompilationError, ReproError, SynthesisError
from ..ocl.host import Context, DeviceBackend, LaunchStats
from ..ocl.ir import Kernel

#: Module names in Table I order.
_MODULES = [
    "vecadd", "sgemm", "psort", "saxpy", "sfilter", "dotproduct", "spmv",
    "cutcp", "stencil", "lbm", "oclprintf", "blackscholes", "matmul",
    "transpose", "kmeans", "nearn", "gaussian", "bfs", "backprop",
    "streamcluster", "pathfinder", "nw", "btree", "lavamd", "hybridsort",
    "particlefilter", "dwt2d", "lud",
]


@dataclass(frozen=True)
class Sweep:
    """A benchmark's sweep cell, kept apart from the machine it runs on.

    ``problem(n)`` is the launch's global size for a requested ``n``;
    ``inputs(problem, rng)`` the host arguments (numpy arrays for
    buffers, Python numbers for scalars) drawn from the harness's
    seeded generator; ``geometry(problem, lanes)`` the launch's
    ``(global, local)`` sizes on a configuration with ``lanes`` = warps
    x threads.
    """

    problem: Callable[[int], tuple[int, ...]]
    inputs: Callable[[tuple[int, ...], np.random.Generator], list]
    geometry: Callable[[tuple[int, ...], int],
                       tuple[tuple[int, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class Benchmark:
    name: str  # module name
    table_name: str  # spelling used in the paper's Table I
    source: str  # "rodinia" | "nvidia_sdk" | "vortex" | "parboil"
    tags: frozenset[str]
    build: Callable[[], list[Kernel]]
    workload: Callable[[int, int], dict]
    run: Callable[[Context, Any, dict], dict]
    reference: Callable[[dict], dict]
    tolerance: float = 1e-3
    sweep: Sweep | None = None


@dataclass
class BenchmarkResult:
    benchmark: str
    backend: str
    status: str  # "ok" | "compile_failed" | "validation_failed" | "error"
    fail_reason: str = ""  # machine-readable (SynthesisError.reason)
    detail: str = ""
    launches: list[LaunchStats] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def total_cycles(self) -> int | None:
        cycles = [s.cycles for s in self.launches if s.cycles is not None]
        return sum(cycles) if cycles else None


_REGISTRY: dict[str, Benchmark] = {}


def register(bench: Benchmark) -> Benchmark:
    if bench.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {bench.name}")
    _REGISTRY[bench.name] = bench
    return bench


def all_benchmarks() -> list[Benchmark]:
    """All 28 benchmarks, in Table I order."""
    for module in _MODULES:
        if module not in _REGISTRY:
            importlib.import_module(f"{__package__}.{module}")
    return [_REGISTRY[m] for m in _MODULES]


def get_benchmark(name: str) -> Benchmark:
    """The Table I benchmark ``name``; any other name raises
    :class:`~repro.errors.ReproError`."""
    if name not in _MODULES:
        raise ReproError(f"unknown benchmark {name!r}")
    if name not in _REGISTRY:
        importlib.import_module(f"{__package__}.{name}")
    return _REGISTRY[name]


def _validate(bench: Benchmark, outputs: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        got = outputs.get(key)
        if got is None:
            return f"missing output {key!r}"
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape:
            return f"{key}: shape {got.shape} != {want.shape}"
        if want.dtype.kind == "f":
            if not np.allclose(got, want, rtol=bench.tolerance,
                               atol=bench.tolerance):
                worst = float(np.nanmax(np.abs(got - want)))
                return f"{key}: max abs error {worst:g}"
        else:
            if not np.array_equal(got, want):
                bad = int((got != want).sum())
                return f"{key}: {bad} mismatching elements"
    return None


def run_benchmark(
    bench: Benchmark | str,
    backend: DeviceBackend,
    scale: int = 1,
    seed: int = 0,
    validate: bool = True,
) -> BenchmarkResult:
    """Compile + execute + validate one benchmark on one backend."""
    if isinstance(bench, str):
        bench = get_benchmark(bench)
    result = BenchmarkResult(benchmark=bench.table_name,
                             backend=backend.name, status="ok")
    ctx = Context(backend)
    try:
        kernels = bench.build()
        prog = ctx.program(kernels)
    except SynthesisError as exc:
        result.status = "compile_failed"
        result.fail_reason = exc.reason
        result.detail = exc.detail
        return result
    except CompilationError as exc:
        result.status = "compile_failed"
        result.fail_reason = "compile"
        result.detail = str(exc)
        return result

    launches: list[LaunchStats] = []
    original_launch = prog.launch

    def tracking_launch(*args, **kwargs):
        stats = original_launch(*args, **kwargs)
        launches.append(stats)
        return stats

    prog.launch = tracking_launch  # type: ignore[method-assign]
    wl = bench.workload(scale, seed)
    try:
        outputs = bench.run(ctx, prog, wl)
    except ReproError as exc:
        result.status = "error"
        result.detail = str(exc)
        result.launches = launches
        return result
    result.launches = launches
    result.outputs = outputs
    if validate:
        failure = _validate(bench, outputs, bench.reference(bench.workload(
            scale, seed)))
        if failure is not None:
            result.status = "validation_failed"
            result.detail = failure
    return result

