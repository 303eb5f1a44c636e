"""Model calibration: fit the Vortex analytical model to SimX.

The paper's conclusion asks for an analytical model that can stand in
for simulation when searching the configuration space; arxiv 2003.13054
shows such a model earns its place only once it is *calibrated* against
the thing it replaces. This package fits the free parameters of
:mod:`repro.vortex.analytical` against SimX and measures the fit's error
bound on the calibration cells — the input of the hierarchical DSE in
:mod:`repro.harness.dse`. A fit is not saved: its ground truth lives in
the result cache, so refitting on a warm cache takes milliseconds and
always fits the running code. The HLS flow has no calibration: it
compiles each kernel to one fixed datapath, so there is no
configuration to search.

Usage::

    with ExperimentEngine(jobs=4, cache=cache) as engine:
        calibration = run_calibration("vecadd", n=1024, engine=engine)
        result = run_dse("vecadd", n=1024, calibration=calibration,
                         engine=engine)
    predict(profile, config, params=calibration.vortex)
"""

from .fit import (
    VORTEX_CALIBRATION_CELLS,
    Calibration,
    CalibrationSample,
    collect_vortex_samples,
    error_bounds,
    fit_vortex_params,
    run_calibration,
)

__all__ = [
    "Calibration",
    "CalibrationSample",
    "VORTEX_CALIBRATION_CELLS",
    "collect_vortex_samples",
    "error_bounds",
    "fit_vortex_params",
    "run_calibration",
]
