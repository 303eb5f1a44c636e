"""Hierarchical design-space exploration for Vortex configurations.

The paper's conclusion calls for exactly this: "the optimal hardware
configuration in the soft GPU was found to be application-dependent.
This underscores the need for a more sophisticated approach, such as an
analytical model, to identify the optimal soft GPU configuration."

The search is *staged* so that per-point cost falls by orders of
magnitude at each stage:

1. **screen** — the synthesis-area model filters configurations that
   fit the target FPGA and the (optionally calibrated, see
   :mod:`repro.calibrate`) analytical performance model prices the
   survivors, at microseconds per point: thousands of (C, W, T) points
   per second from one configuration-independent kernel profile;
2. **frontier** — only the area x predicted-cycles Pareto frontier is
   kept: everything dominated in both resources *and* predicted time
   is dropped without ever being simulated. With a calibration, a
   heuristic prune then drops frontier points predicted slower than
   ``best x (1 + 2*bound)``, keeping at least three. The bound is
   measured on the calibration cells and held-out cells can exceed
   it, so neither step guarantees that the true optimum survives;
3. **confirm** — the surviving handful of frontier points are
   cycle-confirmed with SimX, fanned through the
   :class:`~repro.harness.engine.ExperimentEngine` so memoisation,
   ``--jobs``, retries, and checkpoint/preemption all apply. Confirm
   points are Figure 7 cells (:mod:`repro.harness.sweep` defines their
   workload, launch geometry and content key), so a warmed sweep cache
   makes confirmation free (and vice versa).

The flat "rank the grid, simulate the top K" baseline that
``BENCH_dse.json`` measures the hierarchy against lives in
``benchmarks/test_dse_speed.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..errors import ExplorationError, PointFailure, SynthesisError
from ..hls.device import FPGADevice, STRATIX10_SX2800
from ..profiling import Profiler, ensure_profiler
from ..vortex.analytical import (
    KernelProfile,
    Prediction,
    VortexModelParams,
    predict,
)
from ..vortex import layout
from ..vortex.area import VortexAreaReport, synthesize
from ..vortex.simx.config import VortexConfig
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache
from .sweep import fig7_geometry, fig7_key, fig7_profile, sweep_point
from .tables import render_table


@dataclass
class Candidate:
    config: VortexConfig
    area: VortexAreaReport
    prediction: Prediction
    simulated_cycles: int | None = None
    #: ``ERROR(...)`` note when the verification simulation failed
    #: (after retries) under the engine's ``keep_going`` policy.
    sim_error: str | None = None
    #: True when the candidate survived Pareto-frontier extraction
    #: (never dominated in both predicted cycles and area).
    on_frontier: bool = False

    @property
    def geometry(self) -> tuple[int, int, int]:
        c = self.config
        return (c.cores, c.warps, c.threads)


def pareto_frontier(candidates: list[Candidate]) -> list[Candidate]:
    """The (predicted cycles, ALUT area) Pareto frontier, fastest first.

    A candidate is dominated when another is at least as fast *and* at
    least as small (strictly better in one axis). Ties on both axes keep
    a single deterministic representative (smallest config label), so
    the confirmation set never wastes simulations on duplicates.
    """
    ordered = sorted(
        candidates,
        key=lambda c: (c.prediction.cycles, c.area.aluts,
                       c.config.label()))
    frontier: list[Candidate] = []
    best_area = None
    for cand in ordered:
        if best_area is None or cand.area.aluts < best_area:
            frontier.append(cand)
            best_area = cand.area.aluts
    return frontier


@dataclass
class DSEResult:
    device: FPGADevice
    candidates: list[Candidate] = field(default_factory=list)
    rejected: list[tuple[tuple[int, int, int], str]] = field(
        default_factory=list)
    #: total design points enumerated (feasible + rejected).
    screened: int = 0
    #: wall-clock spent in the analytical screen (enumerate + area +
    #: predict + frontier extraction).
    screen_seconds: float = 0.0
    #: wall-clock spent cycle-confirming candidates with SimX.
    confirm_seconds: float = 0.0

    @property
    def frontier(self) -> list[Candidate]:
        """Frontier candidates, fastest-predicted first."""
        return sorted((c for c in self.candidates if c.on_frontier),
                      key=lambda c: (c.prediction.cycles, c.area.aluts,
                                     c.config.label()))

    @property
    def screen_points_per_sec(self) -> float:
        if self.screen_seconds <= 0.0:
            return 0.0
        return self.screened / self.screen_seconds

    @property
    def best(self) -> Candidate:
        """Best verified candidate; predicted cycles and simulated cycles
        are different scales, so once anything was simulated only the
        simulated candidates compete. Ties (identical cycles) break
        deterministically toward the smaller configuration — first by
        ALUT area, then by config label — because a tie in speed should
        never cost extra fabric.

        Raises :class:`~repro.errors.ExplorationError` (naming the
        device and the rejection reasons) when the area model rejected
        every explored point — there is no best configuration to
        return.
        """
        if not self.candidates:
            raise ExplorationError(self.device.name, self.rejected)
        simulated = [c for c in self.candidates
                     if c.simulated_cycles is not None]
        if simulated:
            return min(simulated,
                       key=lambda c: (c.simulated_cycles, c.area.aluts,
                                      c.config.label()))
        return min(self.candidates,
                   key=lambda c: (c.prediction.cycles, c.area.aluts,
                                  c.config.label()))

    def to_payload(self) -> dict:
        """JSON-serialisable summary (the service's `dse` job result).

        Bounded: per-reason rejection counts instead of the full
        rejection list, and only the frontier + simulated candidates are
        itemised — a thousands-point screen must not produce a
        thousands-row payload.
        """
        reasons: dict[str, int] = {}
        for _, reason in self.rejected:
            reasons[reason] = reasons.get(reason, 0) + 1

        def row(cand: Candidate) -> dict:
            return {
                "config": cand.config.label(),
                "geometry": list(cand.geometry),
                "predicted_cycles": round(cand.prediction.cycles, 1),
                "bottleneck": cand.prediction.bottleneck,
                "aluts": cand.area.aluts,
                "brams": cand.area.brams,
                "simulated_cycles": cand.simulated_cycles,
                "sim_error": cand.sim_error,
                "on_frontier": cand.on_frontier,
            }

        interesting = [c for c in self.candidates
                       if c.on_frontier or c.simulated_cycles is not None
                       or c.sim_error is not None]
        interesting.sort(key=lambda c: (c.prediction.cycles,
                                        c.area.aluts, c.config.label()))
        try:
            best = row(self.best)
        except ExplorationError:
            best = None
        return {
            "device": self.device.name,
            "screened": self.screened,
            "feasible": len(self.candidates),
            "rejected": len(self.rejected),
            "rejected_reasons": reasons,
            "screen_seconds": round(self.screen_seconds, 6),
            "screen_points_per_sec": round(self.screen_points_per_sec, 1),
            "confirm_seconds": round(self.confirm_seconds, 6),
            "frontier_size": len(self.frontier),
            "candidates": [row(c) for c in interesting],
            "best": best,
        }

    def render(self, top: int = 8) -> str:
        ranked = sorted(self.candidates,
                        key=lambda cand: cand.prediction.cycles)
        rows = []
        for cand in ranked[:top]:
            rows.append([
                cand.config.label(),
                f"{cand.prediction.cycles:,.0f}",
                cand.prediction.bottleneck,
                f"{cand.area.aluts:,}",
                f"{cand.area.brams:,}",
                "*" if cand.on_frontier else "",
                f"{cand.simulated_cycles:,}"
                if cand.simulated_cycles is not None
                else (cand.sim_error or "-"),
            ])
        body = render_table(
            ["config", "predicted cycles", "bottleneck", "ALUTs", "BRAMs",
             "frontier", "simulated"],
            rows,
            title=(f"Design-space exploration on {self.device.name} "
                   f"({len(self.candidates)} feasible, "
                   f"{len(self.rejected)} rejected)"),
        )
        if not self.screened:
            return body
        stats = (f"screened {self.screened} points in "
                 f"{self.screen_seconds * 1000:.1f} ms "
                 f"({self.screen_points_per_sec:,.0f} points/sec), "
                 f"frontier {len(self.frontier)}")
        if self.confirm_seconds:
            stats += f", confirmed in {self.confirm_seconds:.2f} s"
        return body + "\n" + stats


#: launch-feasibility ceilings from the simulated platform's memory
#: map: concurrent group slots (one 64 KiB local window per core x warp
#: slot) and per-thread stack frames are finite regions, so a
#: configuration exceeding either cannot launch at all — screening it
#: out here keeps unlaunchable points from ever reaching SimX.
MAX_GROUP_SLOTS = ((layout.LOCAL_LIMIT - layout.LOCAL_BASE)
                   // layout.LOCAL_WINDOW_SIZE)
MAX_SIM_THREADS = ((layout.STACK_LIMIT - layout.STACK_BASE)
                   // layout.STACK_SIZE_PER_THREAD)


def launch_rejection(config: VortexConfig) -> str | None:
    """Why ``config`` cannot launch on the simulated platform, if so."""
    if config.cores * config.warps > MAX_GROUP_SLOTS:
        return "group-slots"
    if config.total_threads > MAX_SIM_THREADS:
        return "stack-region"
    return None


def workload_rejection(benchmark: str, n: int):
    """A ``config -> reason`` screen: ``"workgroup"`` when the cell's
    launch geometry (:func:`~repro.harness.sweep.fig7_geometry`) on
    ``config`` has a local size that does not divide the global size.

    An OpenCL-style launch requires that divisibility, so grids with
    non-power-of-two warp/thread counts would otherwise reach SimX only
    to fail with a launch error. The check is plain integer modulo: it
    runs on every screened point that fits the device.
    """
    def reject(config: VortexConfig) -> str | None:
        sizes, local = fig7_geometry(benchmark, n,
                                     config.warps * config.threads)
        for size, group in zip(sizes, local):
            if size % group:
                return "workgroup"
        return None
    return reject


def dse_confirm_point(config: VortexConfig, benchmark: str, n: int,
                      checkpoint: dict | None = None) -> dict:
    """One frontier confirmation — module-level and spawn-picklable.

    Delegates to :func:`~repro.harness.sweep.sweep_point`, returning its
    full payload so cached values are byte-identical to Figure 7 sweep
    cells (same content key, same value: the two campaigns dedupe
    against each other). The checkpoint ``point_id`` is derived from the
    configuration so every confirm point snapshots/resumes
    independently.
    """
    ckpt = None
    if checkpoint is not None:
        ckpt = dict(checkpoint)
        ckpt["point_id"] = f"dse-{benchmark}-{config.label()}-n{n}"
    return sweep_point(benchmark, config, n, checkpoint=ckpt)


def explore_design_space(
    profile: KernelProfile,
    device: FPGADevice = STRATIX10_SX2800,
    core_counts: tuple[int, ...] = (1, 2, 4, 8),
    warp_sizes: tuple[int, ...] = (2, 4, 8, 16),
    thread_sizes: tuple[int, ...] = (2, 4, 8, 16),
    base: VortexConfig | None = None,
    simulate=None,
    params: VortexModelParams | None = None,
    reject=None,
    frontier_cap: int | None = None,
    prune_rel_err: float | None = None,
    simulate_key=None,
    engine: ExperimentEngine | None = None,
    profiler: Profiler | None = None,
) -> DSEResult:
    """Enumerate (C, W, T), filter by area, rank analytically, confirm.

    ``params`` supplies calibrated analytical-model constants (see
    :mod:`repro.calibrate`); ``None`` keeps the hand-tuned defaults.
    ``reject`` (optional, ``config -> reason | None``) screens out
    workload-specific unlaunchable geometries — see
    :func:`workload_rejection`.

    ``simulate`` (optional) is an engine point function ``config ->
    {"cycles": ...}`` (the sweep payload; see :func:`dse_confirm_point`)
    that cycle-confirms the (predicted cycles x ALUT) Pareto frontier,
    pruned to points within ``best_predicted * (1 + 2*prune_rel_err)``
    but never below three, and capped at the ``frontier_cap``
    fastest-predicted points. The prune is a heuristic: the calibrated
    bound is measured on the calibration cells, and held-out cells can
    exceed it.

    Confirmations run through ``engine``: its worker pool, its result
    cache (keyed by ``simulate_key``, ``config -> cache key``) and its
    fault policy apply — under ``keep_going`` a failed simulation
    leaves the candidate unverified with an ``ERROR(...)`` note in
    :attr:`Candidate.sim_error`. Without ``engine`` a serial fail-fast
    engine runs them inline (so ``simulate`` may be a closure) and a
    failure raises :class:`~repro.errors.ExperimentAborted`.

    ``profiler`` (optional) records the exploration itself: counters for
    enumerated/feasible/rejected/frontier points and wall-clock spans
    around the screen.
    """
    base = base or VortexConfig()
    prof = ensure_profiler(profiler)
    result = DSEResult(device=device)
    screen_started = time.perf_counter()
    with prof.span("dse: screen", cat="dse"):
        for c in core_counts:
            for w in warp_sizes:
                for t in thread_sizes:
                    config = base.with_geometry(cores=c, warps=w, threads=t)
                    result.screened += 1
                    if prof.enabled:
                        prof.count("dse.points")
                    try:
                        area = synthesize(config, device)
                    except SynthesisError as exc:
                        reason = exc.reason
                    else:
                        reason = launch_rejection(config)
                        if reason is None and reject is not None:
                            reason = reject(config)
                    if reason is not None:
                        result.rejected.append(((c, w, t), reason))
                        if prof.enabled:
                            prof.count("dse.rejected")
                            prof.count(f"dse.rejected.{reason}")
                        continue
                    prediction = predict(profile, config, params=params)
                    if prof.enabled:
                        prof.count("dse.feasible")
                    result.candidates.append(
                        Candidate(config=config, area=area,
                                  prediction=prediction))
        for cand in pareto_frontier(result.candidates):
            cand.on_frontier = True
    result.screen_seconds = time.perf_counter() - screen_started
    if prof.enabled:
        prof.count("dse.frontier", len(result.frontier))

    if simulate is None:
        return result
    to_confirm = result.frontier
    if prune_rel_err is not None and to_confirm:
        cutoff = to_confirm[0].prediction.cycles * (1.0 + 2.0 * prune_rel_err)
        kept = [c for c in to_confirm if c.prediction.cycles <= cutoff]
        # never confirm fewer than 3 frontier points: the stated bound
        # is measured on the calibration set, and held-out cells can
        # exceed it — a small floor hedges against over-trusting the
        # model.
        floor = min(3, len(to_confirm))
        to_confirm = kept if len(kept) >= floor else to_confirm[:floor]
    if frontier_cap is not None:
        to_confirm = to_confirm[:frontier_cap]
    if not to_confirm:
        return result

    confirm_started = time.perf_counter()
    if engine is None:
        engine = ExperimentEngine(profiler=profiler)
    keys = (None if simulate_key is None
            else [simulate_key(cand.config) for cand in to_confirm])
    values = engine.run(simulate, [(cand.config,) for cand in to_confirm],
                        keys=keys, label="dse verify")
    for cand, value in zip(to_confirm, values):
        if isinstance(value, PointFailure):
            cand.sim_error = f"ERROR({value.exc_type})"
        else:
            cand.simulated_cycles = value["cycles"]
    if prof.enabled:
        prof.count("dse.simulated", len(to_confirm))
    result.confirm_seconds = time.perf_counter() - confirm_started
    return result


def run_dse(
    benchmark: str,
    n: int = 4096,
    device: FPGADevice = STRATIX10_SX2800,
    core_counts: tuple[int, ...] = (1, 2, 4, 8),
    warp_sizes: tuple[int, ...] = (2, 4, 8, 16),
    thread_sizes: tuple[int, ...] = (2, 4, 8, 16),
    base: VortexConfig | None = None,
    calibration=None,
    confirm: str = "frontier",
    frontier_cap: int | None = 8,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
    profiler: Profiler | None = None,
    checkpoint: dict | None = None,
) -> DSEResult:
    """End-to-end hierarchical DSE for one Figure 7 benchmark workload.

    Profiles the sweep's cell once with the functional interpreter
    (:func:`~repro.harness.sweep.fig7_profile`, which rejects
    benchmarks without one), screens the grid with the (calibrated,
    when ``calibration`` is a
    :class:`~repro.calibrate.CalibrationArtifact`) analytical model,
    and with ``confirm="frontier"`` SimX-confirms the Pareto frontier,
    the calibrated error bound driving the pruning cutoff;
    ``confirm="none"`` screens only (milliseconds end to end).

    Confirmations run :func:`dse_confirm_point` on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`), memoised under the
    Figure 7 cells' content keys. ``checkpoint`` (a
    :func:`~repro.vortex.simx.checkpoint.checkpoint_spec`, whose
    ``point_id`` each confirmation replaces) makes them preemptible
    exactly as in :func:`~repro.harness.sweep.run_sweep`.
    """
    engine = default_engine(engine, cache)
    if confirm not in ("frontier", "none"):
        raise ValueError("confirm must be 'frontier' or 'none'")
    profile = fig7_profile(benchmark, n)

    params = None
    prune_rel_err = None
    if calibration is not None:
        params = calibration.vortex
        prune_rel_err = calibration.bound(benchmark)

    simulate = simulate_key = None
    if confirm == "frontier":
        if checkpoint is not None:
            from ..vortex.simx.checkpoint import CheckpointStore
            # mkdir + stale-only temp sweep, as in run_sweep.
            CheckpointStore(checkpoint["dir"])
        simulate = partial(dse_confirm_point, benchmark=benchmark, n=n,
                           checkpoint=checkpoint)
        simulate_key = partial(fig7_key, engine.cache, benchmark, n=n)

    return explore_design_space(
        profile, device=device, core_counts=core_counts,
        warp_sizes=warp_sizes, thread_sizes=thread_sizes, base=base,
        params=params, reject=workload_rejection(benchmark, n),
        simulate=simulate, frontier_cap=frontier_cap,
        prune_rel_err=prune_rel_err, simulate_key=simulate_key,
        engine=engine, profiler=profiler,
    )
