"""Fit the analytical predictors against ground truth.

Two fits, one artifact:

* **Vortex flow** — the free parameters of
  :func:`repro.vortex.analytical.predict` (per-bound scale factors plus
  the MSHR contention coefficient) are fitted against **SimX** cycle
  counts on a small calibration set of (warps, threads) cells. Ground
  truth runs through the :class:`~repro.harness.engine.ExperimentEngine`
  with the *same content keys as the Figure 7 sweep*, so calibration
  simulations dedupe against sweeps (and vice versa) in one
  :class:`~repro.harness.result_cache.ResultCache`.

* **HLS flow** — the ``issue_scale``/``memory_scale`` of the
  millisecond screen predictor (:func:`repro.hls.perf.screen_cycles`)
  are fitted against the **full pipeline model**
  (:func:`repro.hls.perf.estimate_cycles`, which needs a functional
  interpreter run per launch size) across several problem sizes. The
  paper publishes HLS synthesis *area*, not cycle counts, so the full
  model is the best ground truth available in-repo — the fit makes the
  screen's per-item extrapolation faithful to it.

Fitting is a deterministic multiplicative coordinate descent on mean
squared log-relative error: no SciPy dependence, no RNG, same fit on
every machine. Starting from the hand-tuned defaults guarantees the
calibrated objective is never worse than the uncalibrated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

from ..errors import CalibrationError, PointFailure
from ..harness.engine import ExperimentEngine, default_engine
from ..harness.result_cache import ResultCache, code_fingerprint
from ..harness.sweep import (
    fig7_geometry,
    fig7_key,
    fig7_profile,
    fig7_workload,
    sweep_point,
)
from ..hls.lsu import classify_kernel
from ..hls.perf import (
    HLSKernelProfile,
    HLSModelParams,
    estimate_cycles,
    screen_cycles,
)
from ..ocl.interp import interpret
from ..ocl.ndrange import NDRange
from ..vortex.analytical import VortexModelParams, predict
from ..vortex.simx.config import VortexConfig
from .artifact import CalibrationArtifact

__all__ = [
    "HLS_CALIBRATION_SIZES",
    "VORTEX_CALIBRATION_CELLS",
    "CalibrationSample",
    "collect_hls_samples",
    "collect_vortex_samples",
    "error_bounds",
    "fit_hls_params",
    "fit_vortex_params",
    "run_calibration",
]

#: (warps, threads) cells SimX ground truth is collected on — the
#: corners plus the middle of the Figure 7 grid, so the fit sees issue-,
#: latency- and memory-bound regimes without simulating all 16 cells.
VORTEX_CALIBRATION_CELLS = ((2, 2), (2, 16), (4, 4), (8, 8), (16, 4),
                            (16, 16))

#: problem sizes the HLS screen predictor is fitted across (the full
#: pipeline model re-runs the interpreter per size; the screen must
#: extrapolate between them).
HLS_CALIBRATION_SIZES = (256, 1024, 4096)

#: parameter fields the descent adjusts, with multiplicative bounds.
_VORTEX_FIT_FIELDS = (
    ("issue_scale", 1.0 / 64, 64.0),
    ("memory_scale", 1.0 / 64, 64.0),
    ("latency_scale", 1.0 / 64, 64.0),
    ("contention_alpha", 1e-3, 4.0),
)
_HLS_FIT_FIELDS = (
    ("issue_scale", 1.0 / 64, 64.0),
    ("memory_scale", 1.0 / 64, 64.0),
)


@dataclass(frozen=True)
class CalibrationSample:
    """One (prediction input, ground truth) pair for either flow."""

    flow: str  # "vortex" | "hls"
    benchmark: str
    label: str  # config label / "n=4096"
    profile: object  # KernelProfile | HLSKernelProfile
    config: VortexConfig | None  # vortex flow only
    total_items: int  # hls flow only (extrapolation target)
    true_cycles: float


def collect_vortex_samples(
    benchmarks: Sequence[str] = ("vecadd", "transpose"),
    n: int = 4096,
    cores: int = 4,
    cells: Sequence[tuple[int, int]] = VORTEX_CALIBRATION_CELLS,
    base: VortexConfig | None = None,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
) -> list[CalibrationSample]:
    """SimX ground truth for the Vortex fit, run on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`).

    Content keys are identical to :func:`~repro.harness.sweep.run_sweep`
    cells, so a warmed sweep cache makes calibration free (and a
    calibration warms the sweep).
    """
    engine = default_engine(engine, cache)
    base = base or VortexConfig()
    profiles = {b: fig7_profile(b, n) for b in benchmarks}
    points = [(benchmark, base.with_geometry(cores=cores, warps=w,
                                             threads=t), n)
              for benchmark in benchmarks for (w, t) in cells]
    values = engine.run(
        sweep_point, points,
        keys=[fig7_key(engine.cache, *point) for point in points],
        label="calibrate vortex")

    samples = []
    for (benchmark, config, _), value in zip(points, values):
        if isinstance(value, PointFailure):
            raise CalibrationError(
                f"ground-truth simulation failed for {benchmark} "
                f"{config.label()}: {value.brief()} — calibration needs "
                f"a complete sample set")
        samples.append(CalibrationSample(
            flow="vortex", benchmark=benchmark, label=config.label(),
            profile=profiles[benchmark], config=config,
            total_items=profiles[benchmark].total_items,
            true_cycles=float(value["cycles"])))
    return samples


def collect_hls_samples(
    benchmarks: Sequence[str] = ("vecadd", "transpose"),
    sizes: Sequence[int] = HLS_CALIBRATION_SIZES,
) -> list[CalibrationSample]:
    """Full-pipeline-model ground truth for the HLS screen fit.

    The profile is collected once per benchmark at the smallest size;
    the truth at each size comes from a fresh interpreter run through
    :func:`estimate_cycles` — exactly the cost the screen exists to
    avoid paying per design point.
    """
    samples = []
    for benchmark in benchmarks:
        profile = None
        for size in sorted(sizes):
            kernel, args = fig7_workload(benchmark, size)
            ndrange = NDRange.create(*fig7_geometry(benchmark, size, 16))
            sites = classify_kernel(kernel)
            run = interpret(kernel, args, ndrange)
            if profile is None:
                profile = HLSKernelProfile.collect(kernel, sites, run)
            truth = estimate_cycles(kernel, sites, ndrange, run)
            samples.append(CalibrationSample(
                flow="hls", benchmark=benchmark,
                label=f"n={ndrange.total_items}", profile=profile,
                config=None, total_items=ndrange.total_items,
                true_cycles=float(truth.cycles)))
    return samples


def _sample_prediction(sample: CalibrationSample, vortex:
                       VortexModelParams | None = None,
                       hls: HLSModelParams | None = None) -> float:
    if sample.flow == "vortex":
        return predict(sample.profile, sample.config,
                       params=vortex).cycles
    return screen_cycles(sample.profile, sample.total_items, params=hls)


def _msle(samples: Sequence[CalibrationSample],
          predict_fn: Callable[[CalibrationSample], float]) -> float:
    """Mean squared log error — scale-free, so vecadd's ~9k-cycle runs
    and transpose's ~70k-cycle runs weigh equally in the fit."""
    total = 0.0
    for s in samples:
        pred = max(predict_fn(s), 1e-9)
        total += (math.log(pred) - math.log(max(s.true_cycles, 1e-9))) ** 2
    return total / max(1, len(samples))


def _coordinate_descent(
    start: dict[str, float],
    fields: Sequence[tuple[str, float, float]],
    objective: Callable[[dict[str, float]], float],
    factors: Sequence[float] = (2.0, 1.5, 1.25, 1.1, 1.05, 1.02),
) -> tuple[dict[str, float], float]:
    """Deterministic multiplicative coordinate descent.

    Starts from ``start`` (the hand-tuned defaults), so the returned
    objective is never worse than the starting one.
    """
    vals = dict(start)
    best = objective(vals)
    for factor in factors:
        improved = True
        while improved:
            improved = False
            for name, lo, hi in fields:
                for cand in (vals[name] * factor, vals[name] / factor):
                    cand = min(max(cand, lo), hi)
                    if cand == vals[name]:
                        continue
                    trial = dict(vals)
                    trial[name] = cand
                    score = objective(trial)
                    if score < best - 1e-12:
                        best, vals, improved = score, trial, True
    return vals, best


def fit_vortex_params(samples: Sequence[CalibrationSample],
                      start: VortexModelParams | None = None
                      ) -> VortexModelParams:
    """Fit the Vortex analytical model's free parameters to SimX truth."""
    samples = [s for s in samples if s.flow == "vortex"]
    if not samples:
        raise CalibrationError("no vortex samples to fit against")
    start = start or VortexModelParams()
    base = start.to_payload()

    def objective(vals: dict[str, float]) -> float:
        params = VortexModelParams.from_payload({**base, **vals})
        return _msle(samples, lambda s: _sample_prediction(s, vortex=params))

    fitted, _ = _coordinate_descent(
        {name: base[name] for name, _, _ in _VORTEX_FIT_FIELDS},
        _VORTEX_FIT_FIELDS, objective)
    return VortexModelParams.from_payload({**base, **fitted})


def fit_hls_params(samples: Sequence[CalibrationSample],
                   start: HLSModelParams | None = None) -> HLSModelParams:
    """Fit the HLS screen predictor to the full pipeline model."""
    samples = [s for s in samples if s.flow == "hls"]
    if not samples:
        raise CalibrationError("no hls samples to fit against")
    start = start or HLSModelParams()
    base = start.to_payload()

    def objective(vals: dict[str, float]) -> float:
        params = HLSModelParams.from_payload({**base, **vals})
        return _msle(samples, lambda s: _sample_prediction(s, hls=params))

    fitted, _ = _coordinate_descent(
        {name: base[name] for name, _, _ in _HLS_FIT_FIELDS},
        _HLS_FIT_FIELDS, objective)
    return HLSModelParams.from_payload({**base, **fitted})


def error_bounds(samples: Sequence[CalibrationSample],
                 vortex: VortexModelParams | None = None,
                 hls: HLSModelParams | None = None) -> dict:
    """Per-flow, per-benchmark relative-error bounds of a fit.

    ``{"vortex": {bench: {"max_rel_err", "mean_rel_err", "points"}},
    "hls": {...}}`` — the numbers the artifact states and the
    regression tests assert.
    """
    bounds: dict[str, dict[str, dict]] = {}
    for s in samples:
        pred = _sample_prediction(s, vortex=vortex, hls=hls)
        rel = abs(pred - s.true_cycles) / max(s.true_cycles, 1e-9)
        entry = bounds.setdefault(s.flow, {}).setdefault(
            s.benchmark, {"max_rel_err": 0.0, "mean_rel_err": 0.0,
                          "points": 0})
        entry["max_rel_err"] = max(entry["max_rel_err"], rel)
        entry["mean_rel_err"] += rel
        entry["points"] += 1
    for per_bench in bounds.values():
        for entry in per_bench.values():
            entry["max_rel_err"] = round(entry["max_rel_err"], 6)
            entry["mean_rel_err"] = round(
                entry["mean_rel_err"] / entry["points"], 6)
    return bounds


def run_calibration(
    benchmarks: Sequence[str] = ("vecadd", "transpose"),
    n: int = 4096,
    cores: int = 4,
    cells: Sequence[tuple[int, int]] = VORTEX_CALIBRATION_CELLS,
    hls_sizes: Sequence[int] = HLS_CALIBRATION_SIZES,
    base: VortexConfig | None = None,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
) -> CalibrationArtifact:
    """Collect ground truth, fit both flows, and assemble the artifact.

    The SimX ground truth runs on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`). The caller persists
    the artifact with :meth:`CalibrationArtifact.save`; the fingerprint
    is recorded at fit time so a later load can detect code drift.
    """
    vortex_samples = collect_vortex_samples(
        benchmarks=benchmarks, n=n, cores=cores, cells=cells, base=base,
        engine=default_engine(engine, cache))
    hls_samples = collect_hls_samples(benchmarks=benchmarks,
                                      sizes=hls_sizes)
    vortex_params = fit_vortex_params(vortex_samples)
    hls_params = fit_hls_params(hls_samples)
    bounds = error_bounds(vortex_samples + hls_samples,
                          vortex=vortex_params, hls=hls_params)
    return CalibrationArtifact(
        fingerprint=code_fingerprint(),
        vortex=vortex_params,
        hls=hls_params,
        error_bounds=bounds,
        meta={
            "benchmarks": list(benchmarks),
            "n": n,
            "cores": cores,
            "cells": [list(c) for c in cells],
            "hls_sizes": list(hls_sizes),
        },
    )
