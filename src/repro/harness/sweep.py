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

A cell's problem, inputs and launch geometry are declared once, on its
benchmark module (:class:`~repro.benchmarks.suite.Sweep`), and read
through one gate (:func:`fig7_sweep`), so the registry alone decides
which benchmarks can be swept. :func:`run_cells` runs a batch of cells
on an engine under their content keys (:func:`fig7_key`): the sweep,
DSE confirmations and the calibration call it, and the service's
``fig7-cell`` jobs run the same cell, so each dedupes against the
others in one result cache. A requested ``n`` reaches the simulation
only through its problem, the launch's global size, so two requests
that build the same launch share one cache entry and one snapshot
(transpose rounds ``n`` to a square side: n = 16 … 992 all run the same
16x16 matrix). Each benchmark's kernel is built once per process and
shared by its cells; code generation clones it before any pass, and the
Vortex runtime caches its compiled images.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..benchmarks import Sweep, all_benchmarks, get_benchmark
from ..errors import CalibrationError, PointFailure, ReproError
from ..ocl import Context, Kernel, NDRange
from ..profiling import NULL_PROFILER, Profiler
from ..vortex import KernelProfile, VortexBackend, VortexConfig
from ..vortex.runtime import IMAGE_CACHE_SIZE
from .defaults import FIG7_N, THREAD_SIZES, WARP_SIZES
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache
from .tables import render_heatmap, render_table

#: the deterministic workload seed every cell uses.
SWEEP_SEED = 0

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


def fig7_sweep(benchmark: str) -> Sweep:
    """The sweep cell ``benchmark`` declares, the one gate of every
    sweep runner: for a name outside the registry, or a benchmark that
    declares no sweep, it raises
    :class:`~repro.errors.CalibrationError` — the analytical model has
    no calibration workload for it either."""
    try:
        sweep = get_benchmark(benchmark).sweep
    except ReproError:  # not a benchmark
        sweep = None
    if sweep is None:
        supported = [b.name for b in all_benchmarks() if b.sweep]
        raise CalibrationError(
            f"no calibration workload for benchmark {benchmark!r} "
            f"(supported: {', '.join(supported)})")
    return sweep


def fig7_problem(benchmark: str, n: int) -> tuple[int, ...]:
    """The cell's problem for a request of ``n`` elements: the launch's
    global size, from which its inputs and geometry follow — vecadd's
    ``(n,)``, transpose's ``(side, side)``."""
    return fig7_sweep(benchmark).problem(n)


@functools.cache
def _fig7_kernel(benchmark: str) -> Kernel:
    """The benchmark's kernel, built once per process: code generation
    clones it before its passes, so every cell shares it unchanged."""
    return get_benchmark(benchmark).build()[0]


def fig7_workload(benchmark: str, problem: tuple[int, ...]
                  ) -> tuple[Kernel, list]:
    """The kernel and host arguments of a cell with ``problem``
    (:func:`fig7_problem`): inputs drawn from a fresh :data:`SWEEP_SEED`
    generator, numpy arrays for buffers (which a launch writes into)
    and numbers for scalars."""
    rng = np.random.default_rng(SWEEP_SEED)
    args = fig7_sweep(benchmark).inputs(problem, rng)
    return _fig7_kernel(benchmark), args


def fig7_geometry(benchmark: str, problem: tuple[int, ...], lanes: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(global, local)`` sizes of the launch of a cell with
    ``problem`` on a configuration with ``lanes`` = warps x threads."""
    return fig7_sweep(benchmark).geometry(problem, lanes)


def fig7_key(cache: ResultCache | None, benchmark: str,
             config: VortexConfig, problem: tuple[int, ...]) -> str | None:
    """The content key in ``cache`` of the cell that runs ``problem``
    (:func:`fig7_problem`) on ``config`` (``None`` without a cache).

    The sweep, DSE confirmations, calibration ground truth and the
    service's ``fig7-cell`` jobs all key cells here, so each dedupes
    against the others in one :class:`ResultCache`, and requests whose
    ``n`` builds the same launch share one entry. The key is cheap: it
    builds no workload.
    """
    if cache is None:
        return None
    return cache.key(kind="fig7-cell", benchmark=benchmark, config=config,
                     problem=problem, seed=SWEEP_SEED)


def fig7_snapshot_id(benchmark: str, config: VortexConfig,
                     problem: tuple[int, ...]) -> str:
    """The name the SimX snapshots of the cell that runs ``problem`` on
    ``config`` are stored under.

    It spells out every input that shapes the simulation — the
    benchmark, the problem (:func:`fig7_problem`), :data:`SWEEP_SEED`
    and every :class:`~repro.vortex.VortexConfig` field — so a snapshot
    resumes only its own cell, whichever runner of that cell (the sweep,
    a DSE confirmation, a ``fig7-cell`` job) and whichever ``n`` that
    builds the same launch wrote it.
    """
    size = "x".join(map(str, problem))
    return f"fig7-{benchmark}-p{size}-s{SWEEP_SEED}-{config!r}"


def fig7_profile(benchmark: str, n: int) -> KernelProfile:
    """The cell's configuration-independent :class:`KernelProfile` — the
    analytical model's input for calibration and DSE, collected on the
    clamped (``lanes=16``) work-group.

    A process interprets each problem once, though a calibrated DSE asks
    for its cell's profile twice, for the fit and for the screen. It
    keeps the :data:`~repro.vortex.runtime.IMAGE_CACHE_SIZE` most
    recently used profiles; a profile is frozen, so callers share it.
    """
    return _fig7_profile(benchmark, fig7_problem(benchmark, n))


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _fig7_profile(benchmark: str, problem: tuple[int, ...]
                  ) -> KernelProfile:
    kernel, args = fig7_workload(benchmark, problem)
    return KernelProfile.collect(
        kernel, args, NDRange.create(*fig7_geometry(benchmark, problem, 16)))


def sweep_point(benchmark: str, config: VortexConfig, n: int,
                profile: bool = False, checkpoint: dict | None = None
                ) -> dict:
    """One grid cell — the engine's (picklable, module-level) unit of work.

    ``n`` reaches the launch only through :func:`fig7_problem`. Returns
    ``{"cycles", "lsu_stalls"}`` plus, when ``profile`` is set, a
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
    problem = fig7_problem(benchmark, n)
    profiler = Profiler() if profile else NULL_PROFILER
    plan = None
    if checkpoint is not None and not profile:
        from ..vortex.simx.checkpoint import CheckpointPlan
        plan = CheckpointPlan.from_spec(
            checkpoint, fig7_snapshot_id(benchmark, config, problem))
    kernel, args = fig7_workload(benchmark, problem)
    ctx = Context(VortexBackend(config, profiler=profiler, checkpoint=plan))
    prog = ctx.program([kernel])
    args = [ctx.buffer(a) if isinstance(a, np.ndarray) else a for a in args]
    stats = prog.launch(kernel.name, args, *fig7_geometry(
        benchmark, problem, config.warps * config.threads))
    result = {"cycles": stats.cycles,
              "lsu_stalls": stats.extra.get("lsu_replays", 0)}
    if profile:
        result["report"] = profiler.report(
            title=f"{benchmark} w={config.warps} t={config.threads}",
            backend="simx")
    return result


def run_cells(benchmark: str, n: int, configs, *,
              engine: ExperimentEngine | None = None,
              cache: ResultCache | None = None,
              checkpoint: dict | None = None, profile: bool = False,
              label: str | None = None) -> list:
    """Run ``benchmark``'s cell for ``n`` on each of ``configs``: the
    :func:`sweep_point` values in order, with a
    :class:`~repro.errors.PointFailure` for a cell that failed under the
    engine's ``keep_going``.

    The one runner of a batch of cells: the sweep, DSE confirmations
    and the calibration call it. The cells run on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`) under their content
    keys (:func:`fig7_key`), except profiled cells, whose traces must be
    regenerated. ``checkpoint`` (a
    :func:`~repro.vortex.simx.checkpoint.checkpoint_spec`) makes every
    non-profiled cell preemptible: it snapshots on the spec's cadence,
    retries resume from the latest snapshot, and a spec built with a
    ``point_timeout`` yields at 80% of that budget instead of waiting
    for the watchdog kill. ``label`` (default ``"fig7 <benchmark>"``)
    names the batch's engine span and fault-injection sites.
    """
    engine = default_engine(engine, cache)
    problem = fig7_problem(benchmark, n)
    if checkpoint is not None:
        from ..vortex.simx.checkpoint import CheckpointStore
        # mkdir up front + sweep stale temp files from crashed runs;
        # only the stale age is safe, as concurrent runs may share the dir.
        CheckpointStore(checkpoint["dir"])
    points = [(benchmark, config, n, profile, checkpoint)
              for config in configs]
    keys = [None if profile
            else fig7_key(engine.cache, benchmark, config, problem)
            for config in configs]
    return engine.run(sweep_point, points, keys=keys,
                      label=label or f"fig7 {benchmark}")


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
    """Sweep one benchmark over the (warps, threads) grid through
    :func:`run_cells`, which takes ``engine``, ``cache`` and
    ``checkpoint``.

    When ``profile_dir`` is given, every configuration runs under its own
    :class:`~repro.profiling.Profiler` and its Chrome trace plus summary
    JSON land in that directory (``<bench>_w<warps>_t<threads>.*``), so
    any cell of the Figure 7 heatmap can be inspected cycle by cycle.

    Under the engine's ``keep_going`` a cell whose point fails (after
    retries) lands in :attr:`SweepResult.failures` and renders as an
    ``ERROR(...)`` line instead of aborting the whole grid.
    """
    base = base_config or VortexConfig()
    grid = [(w, t) for w in warp_sizes for t in thread_sizes]
    values = run_cells(
        benchmark, n,
        [base.with_geometry(cores=cores, warps=w, threads=t)
         for w, t in grid],
        engine=engine, cache=cache, checkpoint=checkpoint,
        profile=profile_dir is not None)

    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)
    result = SweepResult(benchmark=benchmark, cores=cores)
    for (w, t), value in zip(grid, values):
        if isinstance(value, PointFailure):
            result.failures[(w, t)] = value
            continue
        result.cycles[(w, t)] = value["cycles"]
        result.lsu_stalls[(w, t)] = value["lsu_stalls"]
        if profile_dir is not None:
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
        # the quoted suboptimal cell besides 8w4t
        subopt = next(cell for cell in paper if cell not in ("best", (8, 4)))
        if not res.cycles:  # every cell failed: nothing to compare
            rows.append([res.benchmark, "ERROR", f"{paper['best']}",
                         "-", "-"])
            continue
        rows.append([
            res.benchmark,
            f"{res.best}",
            f"{paper['best']}",
            _ratio_cell(res.ratio(*subopt), paper[subopt]),
            _ratio_cell(res.ratio(8, 4), paper.get((8, 4), float("nan"))),
        ])
    return render_table(
        ["benchmark", "best (measured)", "best (paper)",
         "suboptimal ratio (meas/paper)", "8w4t ratio (meas/paper)"],
        rows,
        title="Figure 7 sweep vs paper",
    )
