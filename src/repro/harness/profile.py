"""Profile one benchmark on one executor and build a unified report.

This is the harness behind ``python -m repro profile``: it wires a
:class:`~repro.profiling.Profiler` into the chosen backend (reference
interpreter, SimX cycle simulator, or the HLS pipeline model), runs one
Table-I benchmark end-to-end through the standard ``run_benchmark``
driver, and returns the :class:`~repro.profiling.ProfileReport` next to
the benchmark result, so callers can both inspect counters and save a
Chrome-trace file.
"""

from __future__ import annotations

from ..benchmarks import BenchmarkResult, get_benchmark, run_benchmark
from ..errors import PointFailure, ReproError
from ..hls import HLSBackend
from ..ocl.host import ReferenceBackend
from ..profiling import ProfileReport, Profiler
from ..vortex import VortexBackend, VortexConfig
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache

#: CLI spelling -> backend factory.
PROFILE_BACKENDS = ("interp", "simx", "hls")


def make_profiled_backend(backend: str, profiler: Profiler,
                          config: VortexConfig | None = None):
    """Build a backend of the given kind with ``profiler`` attached."""
    if backend == "interp":
        return ReferenceBackend(profiler=profiler)
    if backend == "simx":
        return VortexBackend(config or VortexConfig(), profiler=profiler)
    if backend == "hls":
        # Profiling is about observing execution; a capacity failure
        # would only hide the pipeline numbers the user asked for.
        return HLSBackend(profiler=profiler, enforce_capacity=False)
    raise ValueError(
        f"unknown backend {backend!r} (choose from {PROFILE_BACKENDS})")


def run_profile(
    benchmark: str,
    backend: str = "simx",
    scale: int = 1,
    config: VortexConfig | None = None,
    cycle_bucket: int = Profiler.DEFAULT_CYCLE_BUCKET,
    validate: bool = True,
) -> tuple[ProfileReport, BenchmarkResult]:
    """Run ``benchmark`` once on ``backend`` with profiling enabled; a
    failed run raises :class:`~repro.errors.ReproError` with its status
    and detail."""
    bench = get_benchmark(benchmark)
    profiler = Profiler(cycle_bucket=cycle_bucket)
    profiler.set_meta("benchmark", bench.table_name)
    profiler.set_meta("scale", scale)
    with profiler.span(f"run {bench.name}", cat="harness", pid=1000):
        result = run_benchmark(
            bench, make_profiled_backend(backend, profiler, config),
            scale=scale, validate=validate,
        )
    profiler.name_process(1000, "harness (wall-clock, us)")
    if not result.ok:
        raise ReproError(f"{result.status} {result.detail}")
    report = profiler.report(
        title=f"{bench.name} [{backend}]", backend=backend)
    return report, result


def profile_point(benchmark: str, backend: str, scale: int,
                  config: VortexConfig | None, cycle_bucket: int,
                  validate: bool) -> dict:
    """:func:`run_profile` as a (picklable, module-level) engine point.
    The :class:`BenchmarkResult` holds live buffers, so only the launch
    count and total cycles the CLI prints are kept beside the report."""
    report, result = run_profile(
        benchmark, backend=backend, scale=scale, config=config,
        cycle_bucket=cycle_bucket, validate=validate,
    )
    return {"report": report.to_payload(),
            "summary": {"launches": len(result.launches),
                        "total_cycles": result.total_cycles}}


def run_profile_cached(
    benchmark: str,
    backend: str = "simx",
    scale: int = 1,
    config: VortexConfig | None = None,
    cycle_bucket: int = Profiler.DEFAULT_CYCLE_BUCKET,
    validate: bool = True,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
) -> tuple[ProfileReport, dict, bool]:
    """:func:`profile_point` on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`), whose cache and
    retries apply; a failed profile raises
    :class:`~repro.errors.ReproError` under any ``keep_going`` policy,
    and an unknown benchmark raises one before any point runs.

    Returns ``(report, summary, cache_hit)``. The report round-trips
    losslessly through :meth:`~repro.profiling.ProfileReport.to_payload`,
    so a cached run emits byte-identical trace and summary files.

    The profiler's wall-clock harness span is excluded from the cache
    key inputs but *included* in the cached report — a cached run
    replays the originally measured wall time rather than remeasuring a
    run that never happened.
    """
    get_benchmark(benchmark)
    engine = default_engine(engine, cache)
    key = None
    if engine.cache is not None:
        key = engine.cache.key(
            kind="profile", benchmark=benchmark, backend=backend,
            scale=scale, config=config, cycle_bucket=cycle_bucket,
            validate=validate,
        )
    hits = engine.stats.cache_hits
    [value] = engine.run(
        profile_point,
        [(benchmark, backend, scale, config, cycle_bucket, validate)],
        keys=[key], label="profile")
    if isinstance(value, PointFailure):
        raise ReproError(f"profiling {benchmark} on {backend} failed: "
                         f"{value.message}")
    return (ProfileReport.from_payload(value["report"]), value["summary"],
            engine.stats.cache_hits > hits)
