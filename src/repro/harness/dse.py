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
   cycle-confirmed with SimX as one batch of the benchmark's sweep
   cells (:func:`~repro.harness.sweep.run_cells`, on the
   :class:`~repro.harness.engine.ExperimentEngine`), so memoisation,
   ``--jobs``, retries, and checkpoint/preemption all apply, and a
   warmed sweep cache makes confirmation free (and vice versa).

The flat "rank the grid, simulate the top K" baseline that
``BENCH_dse.json`` measures the hierarchy against lives in
``benchmarks/test_dse_speed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..errors import (CalibrationError, ExplorationError, PointFailure,
                      SynthesisError)
from ..hls.device import FPGADevice, STRATIX10_SX2800
from ..profiling import Profiler, ensure_profiler
from ..vortex.analytical import (
    KernelProfile,
    Prediction,
    VortexModelParams,
    predict,
)
from ..vortex.area import VortexAreaReport, synthesize
from ..vortex.layout import launch_rejection
from ..vortex.simx.config import VortexConfig
from .defaults import (CONFIRM_MODES, CORE_COUNTS, FIG7_N, FRONTIER_CAP,
                       THREAD_SIZES, WARP_SIZES)
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache
from .sweep import fig7_geometry, fig7_problem, fig7_profile, run_cells
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


def _predicted_rank(cand: Candidate) -> tuple:
    """Fastest predicted first; ties go to the smaller configuration,
    then to the lower config label."""
    return (cand.prediction.cycles, cand.area.aluts, cand.config.label())


def pareto_frontier(candidates: list[Candidate]) -> list[Candidate]:
    """The (predicted cycles, ALUT area) Pareto frontier, fastest first.

    A candidate is dominated when another is at least as fast *and* at
    least as small (strictly better in one axis). Ties on both axes keep
    a single deterministic representative (smallest config label), so
    the confirmation set never wastes simulations on duplicates.
    """
    frontier: list[Candidate] = []
    best_area = None
    for cand in sorted(candidates, key=_predicted_rank):
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
    #: the calibrated error bound the frontier was pruned with
    #: (``None`` for an uncalibrated screen).
    bound: float | None = None

    @property
    def frontier(self) -> list[Candidate]:
        """Frontier candidates, fastest-predicted first."""
        return sorted((c for c in self.candidates if c.on_frontier),
                      key=_predicted_rank)

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
        return min(self.candidates, key=_predicted_rank)

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

        interesting = sorted(
            (c for c in self.candidates if c.on_frontier
             or c.simulated_cycles is not None or c.sim_error is not None),
            key=_predicted_rank)
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
            "bound": self.bound,
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
        if self.bound is not None:
            stats += f", calibrated bound {self.bound:.3f}"
        if self.confirm_seconds:
            stats += f", confirmed in {self.confirm_seconds:.2f} s"
        return body + "\n" + stats


def workload_rejection(benchmark: str, n: int):
    """A ``config -> reason`` screen: ``"workgroup"`` when the cell's
    launch geometry (:func:`~repro.harness.sweep.fig7_geometry`) on
    ``config`` has a local size that does not divide the global size.

    An OpenCL-style launch requires that divisibility, so grids with
    non-power-of-two warp/thread counts would otherwise reach SimX only
    to fail with a launch error. The check is plain integer modulo: it
    runs on every screened point that fits the device.
    """
    problem = fig7_problem(benchmark, n)

    def reject(config: VortexConfig) -> str | None:
        sizes, local = fig7_geometry(benchmark, problem,
                                     config.warps * config.threads)
        for size, group in zip(sizes, local):
            if size % group:
                return "workgroup"
        return None
    return reject


def explore_design_space(
    profile: KernelProfile,
    device: FPGADevice = STRATIX10_SX2800,
    core_counts: tuple[int, ...] = CORE_COUNTS,
    warp_sizes: tuple[int, ...] = WARP_SIZES,
    thread_sizes: tuple[int, ...] = THREAD_SIZES,
    base: VortexConfig | None = None,
    simulate=None,
    params: VortexModelParams | None = None,
    reject=None,
    frontier_cap: int | None = None,
    prune_rel_err: float | None = None,
    profiler: Profiler | None = None,
) -> DSEResult:
    """Enumerate (C, W, T), filter by area, rank analytically, confirm.

    ``params`` supplies calibrated analytical-model constants (see
    :mod:`repro.calibrate`); ``None`` keeps the hand-tuned defaults.
    ``reject`` (optional, ``config -> reason | None``) screens out
    workload-specific unlaunchable geometries — see
    :func:`workload_rejection`.

    ``simulate`` (optional) is a batch callable ``configs -> values``
    that cycle-confirms the (predicted cycles x ALUT) Pareto frontier,
    pruned to points within ``best_predicted * (1 + 2*prune_rel_err)``
    but never below three, and capped at the ``frontier_cap``
    fastest-predicted points. The prune is a heuristic: the calibrated
    bound is measured on the calibration cells, and held-out cells can
    exceed it. Each value is a ``{"cycles": ...}`` payload, or a
    :class:`~repro.errors.PointFailure` (a failed simulation under a
    ``keep_going`` engine), which leaves the candidate unverified with
    an ``ERROR(...)`` note in :attr:`Candidate.sim_error`.

    ``profiler`` (optional) records the exploration itself: counters for
    enumerated/feasible/rejected/frontier points and wall-clock spans
    around the screen and the confirmation, which
    :attr:`DSEResult.screen_seconds` and ``confirm_seconds`` read.
    """
    base = base or VortexConfig()
    prof = ensure_profiler(profiler)
    result = DSEResult(device=device, bound=prune_rel_err)
    with prof.span("dse: screen", cat="dse") as screen:
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
    result.screen_seconds = screen.seconds
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

    with prof.span("dse: confirm", cat="dse") as confirm:
        values = simulate([cand.config for cand in to_confirm])
        for cand, value in zip(to_confirm, values):
            if isinstance(value, PointFailure):
                cand.sim_error = f"ERROR({value.exc_type})"
            else:
                cand.simulated_cycles = value["cycles"]
        if prof.enabled:
            prof.count("dse.simulated", len(to_confirm))
    result.confirm_seconds = confirm.seconds
    return result


def run_dse(
    benchmark: str,
    n: int = FIG7_N,
    device: FPGADevice = STRATIX10_SX2800,
    core_counts: tuple[int, ...] = CORE_COUNTS,
    warp_sizes: tuple[int, ...] = WARP_SIZES,
    thread_sizes: tuple[int, ...] = THREAD_SIZES,
    base: VortexConfig | None = None,
    calibration=None,
    confirm: str = "frontier",
    frontier_cap: int | None = FRONTIER_CAP,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
    profiler: Profiler | None = None,
    checkpoint: dict | None = None,
) -> DSEResult:
    """End-to-end hierarchical DSE for one benchmark's sweep cell.

    Profiles the cell once with the functional interpreter
    (:func:`~repro.harness.sweep.fig7_profile`, which rejects
    benchmarks that declare no sweep), screens the grid with the analytical
    model, and with ``confirm="frontier"`` SimX-confirms the Pareto
    frontier; ``confirm="none"`` screens only (milliseconds end to end).
    ``calibration`` (a :class:`~repro.calibrate.Calibration` of
    ``benchmark``, from :func:`~repro.calibrate.run_calibration`)
    supplies the model's parameters and the error bound that drives the
    pruning cutoff; another benchmark's fit raises
    :class:`~repro.errors.CalibrationError`.

    Confirmations are one batch of the benchmark's sweep cells
    (:func:`~repro.harness.sweep.run_cells`) on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`), memoised under their
    content keys and preemptible under ``checkpoint`` exactly as the
    sweep's.
    """
    engine = default_engine(engine, cache)
    if confirm not in CONFIRM_MODES:
        raise ValueError("confirm must be 'frontier' or 'none'")
    params = prune_rel_err = None
    if calibration is not None:
        if calibration.benchmark != benchmark:
            raise CalibrationError(
                f"a {calibration.benchmark} calibration cannot screen "
                f"{benchmark}: fit {benchmark} with run_calibration")
        params, prune_rel_err = calibration.vortex, calibration.bound
    profile = fig7_profile(benchmark, n)
    simulate = None
    if confirm == "frontier":
        simulate = partial(run_cells, benchmark, n, engine=engine,
                           checkpoint=checkpoint, label="dse verify")
    return explore_design_space(
        profile, device=device, core_counts=core_counts,
        warp_sizes=warp_sizes, thread_sizes=thread_sizes, base=base,
        params=params, reject=workload_rejection(benchmark, n),
        simulate=simulate, frontier_cap=frontier_cap,
        prune_rel_err=prune_rel_err, profiler=profiler,
    )
