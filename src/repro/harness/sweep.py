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
run, so ``run_sweep(jobs=N)`` fans the cells across the
:class:`~repro.harness.engine.ExperimentEngine`'s worker pool, and
``cache=`` memoises each cell on disk keyed by (benchmark, config,
problem size, seed, code fingerprint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..benchmarks import get_benchmark
from ..errors import PointFailure, ReproError
from ..ocl import Context
from ..profiling import NULL_PROFILER, Profiler
from ..vortex import VortexBackend, VortexConfig
from .engine import EngineStats, ExperimentEngine
from .result_cache import ResultCache
from .tables import render_heatmap, render_table

WARP_SIZES = (2, 4, 8, 16)
THREAD_SIZES = (2, 4, 8, 16)

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
    cycles: dict[tuple[int, int], int] = field(default_factory=dict)
    #: LSU stalls: loads bounced off full MSHRs (replays).
    lsu_stalls: dict[tuple[int, int], int] = field(default_factory=dict)
    #: cells whose point failed (after retries) under ``keep_going``.
    failures: dict[tuple[int, int], PointFailure] = field(
        default_factory=dict)
    #: execution/cache bookkeeping from the engine that ran the grid.
    engine_stats: EngineStats | None = None

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
                       f"4 cores (best = {self.best})"),
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


def _launch_vecadd(config: VortexConfig, n: int,
                   profiler: Profiler = NULL_PROFILER,
                   checkpoint=None) -> "tuple[int, int]":
    bench = get_benchmark("vecadd")
    ctx = Context(VortexBackend(config, profiler=profiler,
                                checkpoint=checkpoint))
    prog = ctx.program(bench.build())
    rng = np.random.default_rng(SWEEP_SEED)
    a = ctx.buffer(rng.random(n, dtype=np.float32))
    b = ctx.buffer(rng.random(n, dtype=np.float32))
    c = ctx.alloc(n)
    local = min(16, config.warps * config.threads)
    stats = prog.launch("vecadd", [a, b, c, n], n, local)
    return stats.cycles, stats.extra.get("lsu_replays", 0)


def _launch_transpose(config: VortexConfig, dim: int,
                      profiler: Profiler = NULL_PROFILER,
                      checkpoint=None) -> "tuple[int, int]":
    bench = get_benchmark("transpose")
    ctx = Context(VortexBackend(config, profiler=profiler,
                                checkpoint=checkpoint))
    prog = ctx.program(bench.build())
    rng = np.random.default_rng(SWEEP_SEED)
    src = ctx.buffer(rng.random(dim * dim, dtype=np.float32))
    dst = ctx.alloc(dim * dim)
    cap = config.warps * config.threads
    lx = min(4, cap)
    ly = max(1, min(4, cap // lx))
    stats = prog.launch("transpose", [src, dst, dim, dim],
                        (dim, dim), (lx, ly))
    return stats.cycles, stats.extra.get("lsu_replays", 0)


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
    :meth:`~repro.vortex.simx.checkpoint.CheckpointPlan.from_spec`);
    the point then snapshots/resumes mid-simulation and may raise
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
        plan = CheckpointPlan.from_spec(checkpoint)
    if benchmark == "vecadd":
        cycles, stalls = _launch_vecadd(config, n, profiler, plan)
    else:
        dim = int(round(n ** 0.5))
        dim -= dim % 16
        cycles, stalls = _launch_transpose(config, max(dim, 16), profiler,
                                           plan)
    result = {"cycles": cycles, "lsu_stalls": stalls}
    if profile:
        result["report"] = profiler.report(
            title=f"{benchmark} w={config.warps} t={config.threads}",
            backend="simx")
    return result


def run_sweep(
    benchmark: str = "vecadd",
    cores: int = 4,
    n: int = 4096,
    warp_sizes: tuple[int, ...] = WARP_SIZES,
    thread_sizes: tuple[int, ...] = THREAD_SIZES,
    base_config: VortexConfig | None = None,
    profile_dir: str | Path | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
    retries: int = 0,
    point_timeout: float | None = None,
    keep_going: bool = False,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
) -> SweepResult:
    """Sweep one benchmark over the (warps, threads) grid.

    When ``profile_dir`` is given, every configuration runs under its own
    :class:`~repro.profiling.Profiler` and its Chrome trace plus summary
    JSON land in that directory (``<bench>_w<warps>_t<threads>.*``), so
    any cell of the Figure 7 heatmap can be inspected cycle by cycle.

    ``jobs`` fans the grid cells across worker processes and ``cache``
    memoises them on disk; both default to the serial, uncached
    behaviour. Profiled runs bypass the cache — the traces are the
    point, and they must be regenerated. Passing ``engine`` reuses an
    existing :class:`ExperimentEngine` (its stats accumulate across
    sweeps, and its fault-tolerance policy applies).

    ``retries``/``point_timeout``/``keep_going`` configure the engine's
    fault-tolerance policy when the sweep owns the engine: under
    ``keep_going`` a cell whose point fails (after retries) lands in
    :attr:`SweepResult.failures` and renders as an ``ERROR(...)`` line
    instead of aborting the whole grid.

    ``checkpoint_dir`` makes every (non-profiled) cell preemptible:
    workers snapshot machine state every ``checkpoint_every`` simulated
    cycles (default ``DEFAULT_EVERY_CYCLES``), retries resume from the
    latest snapshot, and when ``point_timeout`` is also set each cell
    yields a snapshot at 80% of the budget instead of waiting for the
    watchdog kill (which stays armed as the hard fallback). Cache keys
    and cached values are unchanged by checkpointing.
    """
    if benchmark not in ("vecadd", "transpose"):
        raise ValueError("the Figure 7 sweep covers vecadd and transpose")
    base = base_config or VortexConfig()
    profile = profile_dir is not None
    if profile:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)
    owns_engine = engine is None
    if owns_engine:
        engine = ExperimentEngine(jobs=jobs,
                                  cache=None if profile else cache,
                                  retries=retries,
                                  point_timeout=point_timeout,
                                  keep_going=keep_going)

    checkpointing = checkpoint_dir is not None and not profile
    deadline_s = None
    if checkpointing:
        from ..vortex.simx.checkpoint import CheckpointStore
        # mkdir up front + sweep stale temp files from crashed runs;
        # only the stale age is safe, as concurrent runs may share the dir.
        CheckpointStore(str(checkpoint_dir))
        budget = (point_timeout if owns_engine
                  else getattr(engine, "point_timeout", None))
        if budget:
            deadline_s = budget * 0.8

    grid = [(w, t) for w in warp_sizes for t in thread_sizes]
    points = []
    keys: list[str | None] = []
    for w, t in grid:
        config = base.with_geometry(cores=cores, warps=w, threads=t)
        ckpt = None
        if checkpointing:
            ckpt = {
                "dir": str(checkpoint_dir),
                "point_id": (f"fig7-{benchmark}-c{cores}"
                             f"-w{w}-t{t}-n{n}"),
                "every": checkpoint_every,
                "deadline_s": deadline_s,
            }
        points.append((benchmark, config, n, profile, ckpt))
        keys.append(
            None if engine.cache is None or profile
            else engine.cache.key(
                kind="fig7-cell", benchmark=benchmark, config=config,
                n=n, seed=SWEEP_SEED,
            )
        )
    try:
        values = engine.run(sweep_point, points, keys=keys,
                            label=f"fig7 {benchmark}")
    finally:
        if owns_engine:
            engine.close()

    result = SweepResult(benchmark=benchmark, engine_stats=engine.stats)
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
