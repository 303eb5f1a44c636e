"""Fit the Vortex analytical model against SimX.

The free parameters of :func:`repro.vortex.analytical.predict`
(per-bound scale factors plus the MSHR contention coefficient) are
fitted against **SimX** cycle counts on a small calibration set of
(warps, threads) cells. Ground truth runs through the
:class:`~repro.harness.engine.ExperimentEngine` with the *same content
keys as the Figure 7 sweep*, so calibration simulations dedupe against
sweeps (and vice versa) in one
:class:`~repro.harness.result_cache.ResultCache`.

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
from ..fingerprint import code_fingerprint
from ..harness.engine import ExperimentEngine, default_engine
from ..harness.result_cache import ResultCache
from ..harness.sweep import fig7_key, fig7_profile, sweep_point
from ..vortex.analytical import KernelProfile, VortexModelParams, predict
from ..vortex.simx.config import VortexConfig
from .artifact import CalibrationArtifact

__all__ = [
    "VORTEX_CALIBRATION_CELLS",
    "CalibrationSample",
    "collect_vortex_samples",
    "error_bounds",
    "fit_vortex_params",
    "run_calibration",
]

#: (warps, threads) cells SimX ground truth is collected on — the
#: corners plus the middle of the Figure 7 grid, so the fit sees issue-,
#: latency- and memory-bound regimes without simulating all 16 cells.
VORTEX_CALIBRATION_CELLS = ((2, 2), (2, 16), (4, 4), (8, 8), (16, 4),
                            (16, 16))

#: parameter fields the descent adjusts, with multiplicative bounds.
_VORTEX_FIT_FIELDS = (
    ("issue_scale", 1.0 / 64, 64.0),
    ("memory_scale", 1.0 / 64, 64.0),
    ("latency_scale", 1.0 / 64, 64.0),
    ("contention_alpha", 1e-3, 4.0),
)


@dataclass(frozen=True)
class CalibrationSample:
    """One (prediction input, SimX ground truth) pair."""

    benchmark: str
    label: str  # config label
    profile: KernelProfile
    config: VortexConfig
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
            benchmark=benchmark, label=config.label(),
            profile=profiles[benchmark], config=config,
            true_cycles=float(value["cycles"])))
    return samples


def _sample_prediction(sample: CalibrationSample, vortex:
                       VortexModelParams | None = None) -> float:
    return predict(sample.profile, sample.config, params=vortex).cycles


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


def fit_vortex_params(samples: Sequence[CalibrationSample]
                      ) -> VortexModelParams:
    """Fit the Vortex analytical model's free parameters to SimX truth,
    starting from the hand-tuned defaults."""
    if not samples:
        raise CalibrationError("no samples to fit against")
    base = VortexModelParams().to_payload()

    def objective(vals: dict[str, float]) -> float:
        params = VortexModelParams.from_payload({**base, **vals})
        return _msle(samples, lambda s: _sample_prediction(s, vortex=params))

    fitted, _ = _coordinate_descent(
        {name: base[name] for name, _, _ in _VORTEX_FIT_FIELDS},
        _VORTEX_FIT_FIELDS, objective)
    return VortexModelParams.from_payload({**base, **fitted})


def error_bounds(samples: Sequence[CalibrationSample],
                 vortex: VortexModelParams | None = None) -> dict:
    """Per-benchmark relative-error bounds of a fit on ``samples``.

    ``{bench: {"max_rel_err", "mean_rel_err", "points"}}`` — the
    numbers the artifact states and the regression tests assert.
    """
    bounds: dict[str, dict] = {}
    for s in samples:
        pred = _sample_prediction(s, vortex=vortex)
        rel = abs(pred - s.true_cycles) / max(s.true_cycles, 1e-9)
        entry = bounds.setdefault(
            s.benchmark, {"max_rel_err": 0.0, "mean_rel_err": 0.0,
                          "points": 0})
        entry["max_rel_err"] = max(entry["max_rel_err"], rel)
        entry["mean_rel_err"] += rel
        entry["points"] += 1
    for entry in bounds.values():
        entry["max_rel_err"] = round(entry["max_rel_err"], 6)
        entry["mean_rel_err"] = round(
            entry["mean_rel_err"] / entry["points"], 6)
    return bounds


def run_calibration(
    benchmarks: Sequence[str] = ("vecadd", "transpose"),
    n: int = 4096,
    cores: int = 4,
    cells: Sequence[tuple[int, int]] = VORTEX_CALIBRATION_CELLS,
    base: VortexConfig | None = None,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
) -> CalibrationArtifact:
    """Collect SimX ground truth, fit the Vortex model, and assemble
    the artifact.

    The ground truth runs on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`). The caller persists
    the artifact with :meth:`CalibrationArtifact.save`; the fingerprint
    is recorded at fit time so a later load can detect code drift.
    """
    samples = collect_vortex_samples(
        benchmarks=benchmarks, n=n, cores=cores, cells=cells, base=base,
        engine=default_engine(engine, cache))
    params = fit_vortex_params(samples)
    return CalibrationArtifact(
        fingerprint=code_fingerprint(),
        vortex=params,
        error_bounds=error_bounds(samples, vortex=params),
        meta={
            "benchmarks": list(benchmarks),
            "n": n,
            "cores": cores,
            "cells": [list(c) for c in cells],
        },
    )
