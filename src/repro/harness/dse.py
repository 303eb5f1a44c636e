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
2. **frontier** — only the area x predicted-cycles Pareto frontier can
   contain the best buildable configuration, so everything dominated in
   both resources *and* predicted time is dropped without ever being
   simulated. Calibrated error bounds tighten this further: a frontier
   point predicted slower than ``best x (1 + 2*bound)`` cannot win even
   at the stated model error, so it is pruned too;
3. **confirm** — the surviving handful of frontier points are
   cycle-confirmed with SimX, fanned through the
   :class:`~repro.harness.engine.ExperimentEngine` so memoisation,
   ``--jobs``, retries, and checkpoint/preemption all apply. Confirm
   points share the Figure 7 sweep's content keys, so a warmed sweep
   cache makes confirmation free (and vice versa).

The flat "rank the grid, simulate the top K" mode is retained
(``simulate_top=``) — it is both the backwards-compatible API and the
baseline ``BENCH_dse.json`` measures the hierarchical speedup against.
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
from .engine import ExperimentEngine
from .result_cache import ResultCache
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
    """A ``config -> reason`` screen mirroring the sweep launch geometry.

    The sweep workloads size their work-groups from the configuration
    (``min(16, warps*threads)`` lanes for vecadd, a ``min(4, ...)``
    tile for transpose), and an OpenCL-style launch requires the local
    size to divide the global size. Grids that include non-power-of-two
    warp/thread counts would otherwise reach SimX only to fail with a
    launch error — screening them out keeps both the flat baseline and
    the frontier confirmation on launchable points only.
    """
    if benchmark == "vecadd":
        def reject(config: VortexConfig) -> str | None:
            local = min(16, config.warps * config.threads)
            return None if n % local == 0 else "workgroup"
        return reject
    if benchmark == "transpose":
        dim = int(round(n ** 0.5))
        dim -= dim % 16
        dim = max(dim, 16)

        def reject(config: VortexConfig) -> str | None:
            cap = config.warps * config.threads
            lx = min(4, cap)
            ly = max(1, min(4, cap // lx))
            return None if dim % lx == 0 and dim % ly == 0 else "workgroup"
        return reject
    return lambda config: None


def _sim_cycles(value) -> int:
    """Simulate callables may return raw cycles or a sweep-style
    ``{"cycles": ...}`` payload (the latter keeps DSE confirmation
    cache-compatible with Figure 7 sweep cells)."""
    if isinstance(value, dict):
        return value["cycles"]
    return value


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
    from .sweep import sweep_point

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
    items_per_group: int = 16,
    base: VortexConfig | None = None,
    simulate_top: int = 0,
    simulate=None,
    params: VortexModelParams | None = None,
    reject=None,
    confirm_frontier: bool = False,
    frontier_cap: int | None = None,
    prune_rel_err: float | None = None,
    simulate_key=None,
    engine: ExperimentEngine | None = None,
    profiler: Profiler | None = None,
    jobs: int = 1,
    retries: int = 0,
    point_timeout: float | None = None,
    keep_going: bool = False,
) -> DSEResult:
    """Enumerate (C, W, T), filter by area, rank analytically, confirm.

    ``params`` supplies calibrated analytical-model constants (see
    :mod:`repro.calibrate`); ``None`` keeps the hand-tuned defaults.
    ``reject`` (optional, ``config -> reason | None``) screens out
    workload-specific unlaunchable geometries — see
    :func:`workload_rejection`.

    ``simulate`` (optional) is a callable ``config -> cycles`` (or a
    dict containing ``"cycles"``) used to cycle-confirm candidates. Two
    confirmation policies select which candidates it runs on:

    * ``simulate_top=K`` — the flat baseline: the K best-predicted
      feasible candidates;
    * ``confirm_frontier=True`` — the hierarchical mode: only the
      (predicted cycles x ALUT) Pareto frontier, optionally pruned to
      points within ``best_predicted * (1 + 2*prune_rel_err)`` (a
      calibrated error bound: anything predicted slower than that
      cannot be the true optimum even at the stated model error) and
      capped at the ``frontier_cap`` fastest-predicted points.

    With ``jobs > 1`` (or an explicit ``engine``) the confirmations —
    the only expensive part of the loop — fan out across the experiment
    engine's worker pool; ``simulate`` must then be a picklable
    module-level callable (closures still work in the default serial
    path). ``simulate_key`` (optional, ``config -> cache key``) lets the
    engine memoise each confirmation in its result cache.

    ``retries``/``point_timeout``/``keep_going`` configure the fault
    policy of those verification runs when the exploration owns the
    engine: under ``keep_going`` a failed simulation leaves the
    candidate unverified with an ``ERROR(...)`` note in
    :attr:`Candidate.sim_error` instead of aborting the exploration.

    ``profiler`` (optional) records the exploration itself: counters for
    enumerated/feasible/rejected/frontier points and wall-clock spans
    around the screen and each confirmation.
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
                        result.rejected.append(((c, w, t), exc.reason))
                        if prof.enabled:
                            prof.count("dse.rejected")
                            prof.count(f"dse.rejected.{exc.reason}")
                        continue
                    reason = launch_rejection(config)
                    if reason is None and reject is not None:
                        reason = reject(config)
                    if reason is not None:
                        result.rejected.append(((c, w, t), reason))
                        if prof.enabled:
                            prof.count("dse.rejected")
                            prof.count(f"dse.rejected.{reason}")
                        continue
                    prediction = predict(profile, config,
                                         items_per_group=items_per_group,
                                         params=params)
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

    # -- select the confirmation set --------------------------------------
    to_confirm: list[Candidate] = []
    if simulate is not None:
        if confirm_frontier:
            to_confirm = result.frontier
            if prune_rel_err is not None and to_confirm:
                cutoff = (to_confirm[0].prediction.cycles
                          * (1.0 + 2.0 * prune_rel_err))
                kept = [c for c in to_confirm
                        if c.prediction.cycles <= cutoff]
                # never confirm fewer than 3 frontier points: the
                # stated bound is measured on the calibration set, and
                # held-out cells can exceed it — a small floor hedges
                # against over-trusting the model.
                floor = min(3, len(to_confirm))
                to_confirm = (kept if len(kept) >= floor
                              else to_confirm[:floor])
            if frontier_cap is not None:
                to_confirm = to_confirm[:frontier_cap]
        elif simulate_top:
            ranked = sorted(result.candidates,
                            key=lambda cand: (cand.prediction.cycles,
                                              cand.area.aluts,
                                              cand.config.label()))
            to_confirm = ranked[:simulate_top]

    if not to_confirm:
        return result

    confirm_started = time.perf_counter()
    use_engine = engine is not None or (jobs > 1 and len(to_confirm) > 1)
    if use_engine:
        owns_engine = engine is None
        if owns_engine:
            engine = ExperimentEngine(jobs=jobs, profiler=profiler,
                                      retries=retries,
                                      point_timeout=point_timeout,
                                      keep_going=keep_going)
        keys = None
        if simulate_key is not None and engine.cache is not None:
            keys = [simulate_key(cand.config) for cand in to_confirm]
        try:
            values = engine.run(simulate,
                                [(cand.config,) for cand in to_confirm],
                                keys=keys, label="dse verify")
        finally:
            if owns_engine:
                engine.close()
        for cand, value in zip(to_confirm, values):
            if isinstance(value, PointFailure):
                cand.sim_error = f"ERROR({value.exc_type})"
            else:
                cand.simulated_cycles = _sim_cycles(value)
        if prof.enabled:
            prof.count("dse.simulated", len(to_confirm))
    else:
        for cand in to_confirm:
            with prof.span(f"dse: simulate {cand.config.label()}",
                           cat="dse"):
                try:
                    cand.simulated_cycles = _sim_cycles(
                        simulate(cand.config))
                except Exception as exc:
                    if not keep_going:
                        raise
                    cand.sim_error = f"ERROR({type(exc).__name__})"
            if prof.enabled:
                prof.count("dse.simulated")
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
    simulate_top: int = 8,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
    profiler: Profiler | None = None,
    jobs: int = 1,
    retries: int = 0,
    point_timeout: float | None = None,
    keep_going: bool = False,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    checkpoint_deadline_s: float | None = None,
    checkpoint_stop_file: str | None = None,
) -> DSEResult:
    """End-to-end hierarchical DSE for one benchmark workload.

    Profiles the benchmark once with the functional interpreter, screens
    the grid with the (calibrated, when ``calibration`` is a
    :class:`~repro.calibrate.CalibrationArtifact`) analytical model, and
    confirms according to ``confirm``:

    * ``"frontier"`` — hierarchical: SimX on the pruned Pareto frontier
      (the calibrated error bound drives the pruning cutoff);
    * ``"top"`` — the flat baseline: SimX on the ``simulate_top``
      best-predicted candidates;
    * ``"none"`` — screen only (milliseconds end to end).

    Confirmations run :func:`dse_confirm_point` (SimX via
    ``sweep_point``) through the engine, memoised under the same
    content keys as Figure 7 sweep cells. ``checkpoint_dir`` makes each
    confirmation preemptible exactly as in
    :func:`~repro.harness.sweep.run_sweep`;
    ``checkpoint_deadline_s``/``checkpoint_stop_file`` let a hosting
    service (the daemon's ``dse`` job kind) impose its own preemption
    deadline and cooperative stop file on every confirmation.
    """
    if confirm not in ("frontier", "top", "none"):
        raise ValueError("confirm must be 'frontier', 'top', or 'none'")
    from ..calibrate.fit import _vortex_workload

    kernel, args, ndrange = _vortex_workload(benchmark, n)
    profile = KernelProfile.collect(kernel, args, ndrange)

    params = None
    prune_rel_err = None
    if calibration is not None:
        params = calibration.vortex
        prune_rel_err = calibration.bound("vortex", benchmark)

    owns_engine = engine is None
    if owns_engine and confirm != "none":
        engine = ExperimentEngine(jobs=jobs, cache=cache, retries=retries,
                                  point_timeout=point_timeout,
                                  keep_going=keep_going,
                                  profiler=profiler)

    ckpt_spec = None
    if checkpoint_dir is not None and confirm != "none":
        from ..vortex.simx.checkpoint import CheckpointStore
        CheckpointStore(str(checkpoint_dir))
        budget = getattr(engine, "point_timeout", None) or point_timeout
        deadline_s = checkpoint_deadline_s
        if deadline_s is None and budget:
            deadline_s = budget * 0.8
        ckpt_spec = {
            "dir": str(checkpoint_dir),
            "point_id": "dse",  # overridden per point
            "every": checkpoint_every,
            "deadline_s": deadline_s,
        }
        if checkpoint_stop_file is not None:
            ckpt_spec["stop_file"] = checkpoint_stop_file

    simulate = partial(dse_confirm_point, benchmark=benchmark, n=n,
                       checkpoint=ckpt_spec)

    def simulate_key(config: VortexConfig):
        from .sweep import SWEEP_SEED
        if engine is None or engine.cache is None:
            return None
        return engine.cache.key(kind="fig7-cell", benchmark=benchmark,
                                config=config, n=n, seed=SWEEP_SEED)

    try:
        return explore_design_space(
            profile, device=device, core_counts=core_counts,
            warp_sizes=warp_sizes, thread_sizes=thread_sizes, base=base,
            params=params,
            reject=workload_rejection(benchmark, n),
            simulate=None if confirm == "none" else simulate,
            confirm_frontier=confirm == "frontier",
            frontier_cap=frontier_cap,
            prune_rel_err=prune_rel_err,
            simulate_top=simulate_top if confirm == "top" else 0,
            simulate_key=simulate_key,
            engine=engine, profiler=profiler, jobs=jobs,
            retries=retries, point_timeout=point_timeout,
            keep_going=keep_going,
        )
    finally:
        if owns_engine and engine is not None:
            engine.close()
