"""Model calibration: fit the Vortex analytical model to SimX.

The paper's conclusion asks for an analytical model that can stand in
for simulation when searching the configuration space; arxiv 2003.13054
shows such a model earns its place only once it is *calibrated* against
the thing it replaces. This package fits the free parameters of
:mod:`repro.vortex.analytical` against SimX, measures per-benchmark
error bounds on the calibration cells, and persists the fit as a
versioned JSON artifact keyed by the repro code fingerprint — the input
of the hierarchical DSE in :mod:`repro.harness.dse`. The HLS flow has
no calibration: it compiles each kernel to one fixed datapath, so there
is no configuration to search.

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
    VORTEX_CALIBRATION_CELLS,
    CalibrationSample,
    collect_vortex_samples,
    error_bounds,
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
    "VORTEX_CALIBRATION_CELLS",
    "collect_vortex_samples",
    "error_bounds",
    "fit_vortex_params",
    "load_calibration",
    "run_calibration",
]
