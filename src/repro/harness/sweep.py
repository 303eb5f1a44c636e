"""Experiment E3 — Figure 7: Vortex warp/thread configuration sweep.

Runs vecadd and transpose on the SimX model with 4 cores and every
(warps, threads) combination in {2,4,8,16}^2, normalizing cycles to the
per-benchmark minimum — the paper's heatmap. Work-group sizes adapt to
the configuration (PoCL clamps the group size to what the device
supports), exactly as a real launch would.

The paper's quoted shape: vecadd reaches its optimum at 4 warps / 4
threads and degrades ~27% at 8/8 and ~11% at 8 warps / 4 threads (more
LSU stalls from its higher load density); transpose peaks at 8/8 and
loses ~44% at 4/4 and ~17% at 8 warps / 4 threads.

The grid is embarrassingly parallel: each cell is an independent SimX
run, so ``run_sweep(engine=ExperimentEngine(jobs=N, cache=...))`` fans
the cells across worker processes and memoises each on disk. A cell's
inputs, launch geometry and content key are defined here once
(:func:`fig7_workload`, :func:`fig7_geometry`, :func:`fig7_key`): DSE
confirmations, the calibration and the service's ``fig7-cell`` jobs
run the same cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..benchmarks import get_benchmark
from ..errors import CalibrationError, PointFailure, ReproError
from ..ocl import Context, Kernel, NDRange
from ..profiling import NULL_PROFILER, Profiler
from ..vortex import KernelProfile, VortexBackend, VortexConfig
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache
from .tables import render_heatmap, render_table

WARP_SIZES = (2, 4, 8, 16)
THREAD_SIZES = (2, 4, 8, 16)
#: the default problem size of a Figure 7 cell, a DSE and a calibration.
FIG7_N = 4096

#: the deterministic workload seed every cell uses.
SWEEP_SEED = 0

#: the benchmarks a Figure 7 cell runs.
FIG7_BENCHMARKS = ("vecadd", "transpose")

#: Ratios quoted in §III-C, relative to each benchmark's optimum.
PAPER_FIG7 = {
    "vecadd": {"best": (4, 4), (8, 8): 1.27, (8, 4): 1.11},
    "transpose": {"best": (8, 8), (4, 4): 1.44, (8, 4): 1.17},
}


@dataclass
class SweepResult:
    benchmark: str
    #: the sweep's core count (every cell has it).
    cores: int = 4
    cycles: dict[tuple[int, int], int] = field(default_factory=dict)
    #: LSU stalls: loads bounced off full MSHRs (replays).
    lsu_stalls: dict[tuple[int, int], int] = field(default_factory=dict)
    #: cells whose point failed (after retries) under ``keep_going``.
    failures: dict[tuple[int, int], PointFailure] = field(
        default_factory=dict)

    @property
    def best(self) -> tuple[int, int]:
        if not self.cycles:
            raise ReproError(
                f"every cell of the {self.benchmark} sweep failed "
                f"({len(self.failures)} failures) — no best configuration"
            )
        return min(self.cycles, key=self.cycles.get)

    def normalized(self) -> dict[tuple[int, int], float]:
        floor = self.cycles[self.best]
        return {k: v / floor for k, v in self.cycles.items()}

    def ratio(self, warps: int, threads: int) -> float:
        """Cycles at (warps, threads) relative to the sweep's best cell.

        NaN when the sweep did not cover that cell (custom
        ``warp_sizes``/``thread_sizes`` grids), so renderers can show
        ``-`` instead of crashing on the paper's quoted cells.
        """
        cycles = self.cycles.get((warps, threads))
        if cycles is None:
            return float("nan")
        return cycles / self.cycles[self.best]

    def render(self) -> str:
        if self.cycles:
            body = render_heatmap(
                self.normalized(),
                title=(f"Figure 7 ({self.benchmark}): normalized cycles, "
                       f"{self.cores} cores (best = {self.best})"),
            )
        else:
            body = (f"Figure 7 ({self.benchmark}): all "
                    f"{len(self.failures)} cells failed")
        if not self.failures:
            return body
        lines = [body, f"{len(self.failures)} cell(s) failed:"]
        for (w, t), failure in sorted(self.failures.items()):
            lines.append(f"  w={w} t={t}: {failure.brief()}")
        return "\n".join(lines)


def _transpose_side(n: int) -> int:
    """Side of the square transpose matrix nearest ``n`` elements: a
    multiple of 16, at least 16."""
    dim = int(round(n ** 0.5))
    return max(dim - dim % 16, 16)


def fig7_workload(benchmark: str, n: int) -> tuple[Kernel, list]:
    """The cell's kernel and host arguments: :data:`SWEEP_SEED` inputs
    as numpy arrays (buffers) and ints (scalars).

    Raises :class:`~repro.errors.CalibrationError` for a benchmark with
    no Figure 7 cell — the analytical model has no calibration workload
    for it either.
    """
    if benchmark not in FIG7_BENCHMARKS:
        raise CalibrationError(
            f"no calibration workload for benchmark {benchmark!r} "
            f"(supported: {', '.join(FIG7_BENCHMARKS)})")
    kernel = get_benchmark(benchmark).build()[0]
    rng = np.random.default_rng(SWEEP_SEED)
    if benchmark == "vecadd":
        return kernel, [rng.random(n, dtype=np.float32),
                        rng.random(n, dtype=np.float32),
                        np.zeros(n, dtype=np.float32), n]
    dim = _transpose_side(n)
    return kernel, [rng.random(dim * dim, dtype=np.float32),
                    np.zeros(dim * dim, dtype=np.float32), dim, dim]


def fig7_geometry(benchmark: str, n: int, lanes: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(global, local)`` sizes of the cell's launch on a configuration
    with ``lanes`` = warps x threads.

    PoCL clamps the work-group to what the device runs at once: up to
    16 items for vecadd, up to a 4x4 tile for transpose — so every
    ``lanes >= 16`` launches the same geometry.
    """
    if benchmark == "vecadd":
        return (n,), (min(16, lanes),)
    dim = _transpose_side(n)
    lx = min(4, lanes)
    return (dim, dim), (lx, max(1, min(4, lanes // lx)))


def fig7_key(cache: ResultCache | None, benchmark: str,
             config: VortexConfig, n: int) -> str | None:
    """The cell's content key in ``cache`` (``None`` without a cache).

    The sweep, DSE confirmations, calibration ground truth and the
    service's ``fig7-cell`` jobs all key cells here, so each dedupes
    against the others in one :class:`ResultCache`.
    """
    if cache is None:
        return None
    return cache.key(kind="fig7-cell", benchmark=benchmark, config=config,
                     n=n, seed=SWEEP_SEED)


def fig7_snapshot_id(benchmark: str, config: VortexConfig, n: int) -> str:
    """The name the cell's SimX snapshots are stored under.

    It spells out every input that shapes the simulation — the
    benchmark, ``n``, :data:`SWEEP_SEED` and every
    :class:`~repro.vortex.VortexConfig` field — so a snapshot resumes
    only its own cell, whichever runner of that cell (the sweep, a DSE
    confirmation, a ``fig7-cell`` job) wrote it.
    """
    return f"fig7-{benchmark}-n{n}-s{SWEEP_SEED}-{config!r}"


def fig7_profile(benchmark: str, n: int) -> KernelProfile:
    """The cell's configuration-independent :class:`KernelProfile` — the
    analytical model's input for calibration and DSE, collected on the
    clamped (``lanes=16``) work-group."""
    kernel, args = fig7_workload(benchmark, n)
    return KernelProfile.collect(
        kernel, args, NDRange.create(*fig7_geometry(benchmark, n, 16)))


def sweep_point(benchmark: str, config: VortexConfig, n: int,
                profile: bool = False, checkpoint: dict | None = None
                ) -> dict:
    """One grid cell — the engine's (picklable, module-level) unit of work.

    Returns ``{"cycles", "lsu_stalls"}`` plus, when ``profile`` is set, a
    ``"report"`` :class:`~repro.profiling.ProfileReport` recorded by a
    profiler private to this point (per-worker profiling: each parallel
    worker builds its own profiler and ships the report back, so the
    collected traces are identical to a serial run's).

    ``checkpoint`` is the engine's picklable checkpoint spec (see
    :func:`~repro.vortex.simx.checkpoint.checkpoint_spec`); the point
    then snapshots/resumes mid-simulation under
    :func:`fig7_snapshot_id` and may raise
    :class:`~repro.errors.SimulationPreempted` past its deadline. The
    result payload is unaffected — cache keys and cached values stay
    byte-identical to an uncheckpointed run. Profiled points ignore it
    (sampler state is not snapshotted; profiled runs bypass the cache
    anyway).
    """
    profiler = Profiler() if profile else NULL_PROFILER
    plan = None
    if checkpoint is not None and not profile:
        from ..vortex.simx.checkpoint import CheckpointPlan
        plan = CheckpointPlan.from_spec(
            checkpoint, fig7_snapshot_id(benchmark, config, n))
    kernel, args = fig7_workload(benchmark, n)
    ctx = Context(VortexBackend(config, profiler=profiler, checkpoint=plan))
    prog = ctx.program([kernel])
    args = [ctx.buffer(a) if isinstance(a, np.ndarray) else a for a in args]
    stats = prog.launch(kernel.name, args, *fig7_geometry(
        benchmark, n, config.warps * config.threads))
    result = {"cycles": stats.cycles,
              "lsu_stalls": stats.extra.get("lsu_replays", 0)}
    if profile:
        result["report"] = profiler.report(
            title=f"{benchmark} w={config.warps} t={config.threads}",
            backend="simx")
    return result


def run_sweep(
    benchmark: str = "vecadd",
    cores: int = 4,
    n: int = FIG7_N,
    warp_sizes: tuple[int, ...] = WARP_SIZES,
    thread_sizes: tuple[int, ...] = THREAD_SIZES,
    base_config: VortexConfig | None = None,
    profile_dir: str | Path | None = None,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
    checkpoint: dict | None = None,
) -> SweepResult:
    """Sweep one benchmark over the (warps, threads) grid.

    When ``profile_dir`` is given, every configuration runs under its own
    :class:`~repro.profiling.Profiler` and its Chrome trace plus summary
    JSON land in that directory (``<bench>_w<warps>_t<threads>.*``), so
    any cell of the Figure 7 heatmap can be inspected cycle by cycle.

    The cells run on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`): under its
    ``keep_going`` a cell whose point fails (after retries) lands in
    :attr:`SweepResult.failures` and renders as an ``ERROR(...)`` line
    instead of aborting the whole grid. Profiled runs bypass the cache —
    the traces are the point, and they must be regenerated.

    ``checkpoint`` (a
    :func:`~repro.vortex.simx.checkpoint.checkpoint_spec`) makes every
    non-profiled cell preemptible: it snapshots on the spec's cadence,
    retries resume from the latest snapshot, and a spec built with a
    ``point_timeout`` yields at 80% of that budget instead of waiting
    for the watchdog kill. Cache keys and cached values are unchanged
    by checkpointing.
    """
    engine = default_engine(engine, cache)
    if benchmark not in FIG7_BENCHMARKS:
        raise ValueError("the Figure 7 sweep covers vecadd and transpose")
    base = base_config or VortexConfig()
    profile = profile_dir is not None
    if profile:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)
    if checkpoint is not None:
        from ..vortex.simx.checkpoint import CheckpointStore
        # mkdir up front + sweep stale temp files from crashed runs;
        # only the stale age is safe, as concurrent runs may share the dir.
        CheckpointStore(checkpoint["dir"])

    grid = [(w, t) for w in warp_sizes for t in thread_sizes]
    points = []
    keys: list[str | None] = []
    for w, t in grid:
        config = base.with_geometry(cores=cores, warps=w, threads=t)
        points.append((benchmark, config, n, profile, checkpoint))
        keys.append(None if profile
                    else fig7_key(engine.cache, benchmark, config, n))
    values = engine.run(sweep_point, points, keys=keys,
                        label=f"fig7 {benchmark}")

    result = SweepResult(benchmark=benchmark, cores=cores)
    for (w, t), value in zip(grid, values):
        if isinstance(value, PointFailure):
            result.failures[(w, t)] = value
            continue
        result.cycles[(w, t)] = value["cycles"]
        result.lsu_stalls[(w, t)] = value["lsu_stalls"]
        if profile:
            stem = profile_dir / f"{benchmark}_w{w}_t{t}"
            report = value["report"]
            report.save_chrome_trace(stem.with_suffix(".trace.json"))
            report.save_json(stem.with_suffix(".json"))
    return result


def _ratio_cell(measured: float, paper: float) -> str:
    meas = "-" if math.isnan(measured) else f"{measured:.2f}"
    ref = "-" if math.isnan(paper) else f"{paper:.2f}"
    return f"{meas} / {ref}"


def render_comparison(results: list[SweepResult]) -> str:
    """Side-by-side measured-vs-paper ratio table.

    Cells the sweep did not cover (custom grids) render as ``-``.
    """
    rows = []
    for res in results:
        paper = PAPER_FIG7[res.benchmark]
        subopt = (8, 8) if res.benchmark == "vecadd" else (4, 4)
        if not res.cycles:  # every cell failed: nothing to compare
            rows.append([res.benchmark, "ERROR", f"{paper['best']}",
                         "-", "-"])
            continue
        rows.append([
            res.benchmark,
            f"{res.best}",
            f"{paper['best']}",
            _ratio_cell(res.ratio(*subopt),
                        paper.get(subopt, float("nan"))),
            _ratio_cell(res.ratio(8, 4), paper.get((8, 4), float("nan"))),
        ])
    return render_table(
        ["benchmark", "best (measured)", "best (paper)",
         "suboptimal ratio (meas/paper)", "8w4t ratio (meas/paper)"],
        rows,
        title="Figure 7 sweep vs paper",
    )
