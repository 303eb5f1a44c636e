"""A sweep cell is declared once, on its benchmark module.

Declaring a :class:`~repro.benchmarks.Sweep` on a benchmark is the only
change the Figure 7 sweep, the calibration, the DSE and the service's
``fig7-cell`` jobs need to run it, and they share its cells through one
result cache. A benchmark without a declaration is refused by all four,
through one gate.
"""

import dataclasses

import numpy as np
import pytest

from repro.benchmarks import Sweep, get_benchmark, suite
from repro.calibrate import VORTEX_CALIBRATION_CELLS, run_calibration
from repro.errors import CalibrationError, ServiceError
from repro.harness import ExperimentEngine, ResultCache, run_dse, run_sweep
from repro.harness import sweep
from repro.service.jobs import execute_job, job_key, validate_job

CELL = {"kind": "fig7-cell", "benchmark": "saxpy", "cores": 1, "warps": 2,
        "threads": 2, "n": 64}

#: each entry point, on a one-cell grid of ``benchmark``.
ENTRY_POINTS = {
    "run_sweep": lambda benchmark, **kw: run_sweep(
        benchmark, cores=1, n=64, warp_sizes=(2,), thread_sizes=(2,), **kw),
    "run_calibration": lambda benchmark, **kw: run_calibration(
        benchmark, n=64, **kw),
    "run_dse": lambda benchmark, **kw: run_dse(
        benchmark, n=64, core_counts=(1,), warp_sizes=(2,),
        thread_sizes=(2,), **kw),
}


def _saxpy_inputs(problem, rng):
    (n,) = problem
    return [rng.random(n, dtype=np.float32),
            rng.random(n, dtype=np.float32), 2.5, n]


@pytest.fixture
def saxpy_sweep(monkeypatch):
    """saxpy with a streaming sweep like vecadd's, in which ``a`` is a
    scalar."""
    declared = dataclasses.replace(get_benchmark("saxpy"), sweep=Sweep(
        problem=lambda n: (n,), inputs=_saxpy_inputs,
        geometry=lambda problem, lanes: (problem, (min(16, lanes),))))
    monkeypatch.setitem(suite._REGISTRY, "saxpy", declared)
    yield
    sweep._fig7_kernel.cache_clear()
    sweep._fig7_profile.cache_clear()


def test_declared_sweep_runs_everywhere_on_one_cache(saxpy_sweep, tmp_path):
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    swept = ENTRY_POINTS["run_sweep"]("saxpy", engine=engine)
    calibration = ENTRY_POINTS["run_calibration"]("saxpy", engine=engine)
    explored = ENTRY_POINTS["run_dse"]("saxpy", calibration=calibration,
                                       engine=engine)
    spec = validate_job(CELL)
    [job] = engine.run(execute_job, [(spec,)],
                       keys=[job_key(engine.cache, spec)])
    # the DSE confirmation and the job read the sweep's one execution
    assert engine.stats.executed == 1 + len(VORTEX_CALIBRATION_CELLS)
    assert (swept.cycles[(2, 2)] == explored.best.simulated_cycles
            == job["cycles"])
    assert calibration.points == len(VORTEX_CALIBRATION_CELLS)
    with pytest.raises(CalibrationError,
                       match="supported: vecadd, saxpy, transpose"):
        sweep.fig7_sweep("sgemm")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_undeclared_sweep_is_refused(entry):
    with pytest.raises(CalibrationError,
                       match="no calibration workload for benchmark 'saxpy'"):
        ENTRY_POINTS[entry]("saxpy")


def test_undeclared_sweep_is_a_bad_request():
    with pytest.raises(ServiceError) as exc:
        validate_job(CELL)
    assert exc.value.code == "bad-request"
    assert "saxpy" in str(exc.value)
