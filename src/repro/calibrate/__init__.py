"""Model calibration: fit the analytical predictors to ground truth.

The paper's conclusion asks for an analytical model that can stand in
for simulation when searching the configuration space; arxiv 2003.13054
shows such a model earns its place only once it is *calibrated* against
the thing it replaces. This package fits the free parameters of
:mod:`repro.vortex.analytical` (against SimX) and of the
:func:`repro.hls.perf.screen_cycles` fast path (against the full HLS
pipeline model), measures per-benchmark error bounds, and persists the
fit as a versioned JSON artifact keyed by the repro code fingerprint —
the trusted input of the hierarchical DSE in :mod:`repro.harness.dse`.

Usage::

    with ExperimentEngine(jobs=4, cache=cache) as engine:
        art = run_calibration(engine=engine)
    art.save(".repro-calibration.json")
    ...
    art = load_calibration(".repro-calibration.json")
    predict(profile, config, params=art.vortex)
"""

from .artifact import (
    CALIBRATION_SCHEMA,
    CalibrationArtifact,
    load_calibration,
)
from .fit import (
    HLS_CALIBRATION_SIZES,
    VORTEX_CALIBRATION_CELLS,
    CalibrationSample,
    collect_hls_samples,
    collect_vortex_samples,
    error_bounds,
    fit_hls_params,
    fit_vortex_params,
    run_calibration,
)

#: conventional artifact location (repo root / campaign directory).
DEFAULT_ARTIFACT_PATH = ".repro-calibration.json"

__all__ = [
    "CALIBRATION_SCHEMA",
    "DEFAULT_ARTIFACT_PATH",
    "CalibrationArtifact",
    "CalibrationSample",
    "HLS_CALIBRATION_SIZES",
    "VORTEX_CALIBRATION_CELLS",
    "collect_hls_samples",
    "collect_vortex_samples",
    "error_bounds",
    "fit_hls_params",
    "fit_vortex_params",
    "load_calibration",
    "run_calibration",
]
