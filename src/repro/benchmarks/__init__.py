"""The 28-benchmark suite of the paper's Table I.

Benchmarks are re-implementations of the Rodinia / NVIDIA OpenCL SDK /
Parboil / Vortex-sample workloads against this repository's kernel IR,
each with a deterministic workload generator and a numpy golden model.
"""

from .suite import (
    Benchmark,
    BenchmarkResult,
    Sweep,
    all_benchmarks,
    get_benchmark,
    run_benchmark,
)

__all__ = [
    "Benchmark",
    "BenchmarkResult",
    "Sweep",
    "all_benchmarks",
    "get_benchmark",
    "run_benchmark",
]
