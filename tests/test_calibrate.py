"""Tests for the calibration subsystem (``repro.calibrate``).

The contract under test: a fit never degrades the hand-tuned model on
its own calibration set, its *stated* error bound holds where it was
measured, and — the regression that matters for the hierarchical DSE —
calibrated predictions stay within a stated tolerance of SimX ground
truth across the full Figure 7 grid, i.e. also on cells the fit never
saw. A fit is a cached computation: refitting on a warm cache
simulates nothing, and a fit for other code re-simulates its cells.
"""

import pytest

from repro.calibrate import run_calibration
from repro.calibrate.fit import (
    VORTEX_CALIBRATION_CELLS,
    _msle,
    _sample_prediction,
    collect_vortex_samples,
    error_bounds,
)
from repro.errors import CalibrationError
from repro.harness import ExperimentEngine
from repro.harness.dse import run_dse
from repro.harness.result_cache import ResultCache
from repro.harness.sweep import THREAD_SIZES, WARP_SIZES
from repro.vortex.analytical import VortexModelParams

#: Calibration-set scale: large enough that the issue/memory/latency
#: regimes separate, small enough that SimX ground truth stays cheap.
N = 1024
BENCHMARKS = ("vecadd", "transpose")

#: Per-benchmark ceilings on the relative error of *held-out* Figure 7
#: cells. A fit's own bound is measured on the calibration cells; the
#: full grid includes ten cells per benchmark the fit never saw, where
#: the analytical model's structural error (not its fitted constants)
#: dominates. Measured at n=1024, each under its benchmark's own fit:
#: the worst cells are 0.408 for vecadd (4c2w8t) and 0.161 for
#: transpose (4c2w4t); each ceiling is about 10% above its reading.
#: ROADMAP items 3-4 (held-out bound, model mechanisms) re-measure them.
FIG7_GRID_CEILINGS = {"vecadd": 0.45, "transpose": 0.18}

FIG7_CELLS = tuple((w, t) for w in WARP_SIZES for t in THREAD_SIZES)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One result cache for the module: the calibration cells are a
    subset of the Figure 7 grid, so the grid fixture below re-simulates
    only the held-out cells."""
    return ResultCache(tmp_path_factory.mktemp("calib-cache"))


@pytest.fixture(scope="module")
def fits(cache):
    return {b: run_calibration(b, n=N, cache=cache) for b in BENCHMARKS}


@pytest.fixture(scope="module")
def grid_samples(cache):
    return collect_vortex_samples(benchmarks=BENCHMARKS, n=N,
                                  cells=FIG7_CELLS, cache=cache)


def _calibration_samples(grid_samples, benchmark):
    cells = set(VORTEX_CALIBRATION_CELLS)
    return [s for s in grid_samples if s.benchmark == benchmark
            and (s.config.warps, s.config.threads) in cells]


class TestFitQuality:
    def test_fit_never_worse_than_defaults(self, fits, grid_samples):
        for bench, fit in fits.items():
            samples = _calibration_samples(grid_samples, bench)
            fitted = _msle(samples,
                           lambda s: _sample_prediction(s, vortex=fit.vortex))
            stock = _msle(samples,
                          lambda s: _sample_prediction(
                              s, vortex=VortexModelParams()))
            assert fitted <= stock + 1e-12, bench

    def test_stated_bounds_hold_on_calibration_set(self, fits,
                                                   grid_samples):
        """A fit's error bound is a *measurement*: re-measuring the
        calibration cells with the fitted parameters must reproduce it
        (up to its rounding)."""
        for bench, fit in fits.items():
            samples = _calibration_samples(grid_samples, bench)
            remeasured = error_bounds(samples, vortex=fit.vortex)[bench]
            assert (fit.benchmark, fit.n, fit.points) == (bench, N, 6)
            assert remeasured["max_rel_err"] <= fit.bound + 1e-6
            # bounds are genuine fractions, not degenerate zeros/infs
            assert 0.0 <= fit.bound < 1.0

    def test_fig7_grid_within_stated_tolerance(self, fits, grid_samples):
        """Predicted vs simulated cycles across the full Figure 7 grid
        (16 cells per benchmark, most held out from the fit) stay within
        the benchmark's FIG7_GRID_CEILINGS relative error under its own
        fit. This is the bound that makes hierarchical DSE trustworthy:
        screening decisions are made on these predictions."""
        worst = {}
        for s in grid_samples:
            pred = _sample_prediction(s, vortex=fits[s.benchmark].vortex)
            rel = abs(pred - s.true_cycles) / s.true_cycles
            worst[s.benchmark] = max(worst.get(s.benchmark, 0.0), rel)
            ceiling = FIG7_GRID_CEILINGS[s.benchmark]
            assert rel <= ceiling, (
                f"{s.benchmark} {s.label}: predicted {pred:,.0f} vs "
                f"simulated {s.true_cycles:,.0f} — relative error "
                f"{rel:.2f} exceeds the stated {ceiling}")
        assert set(worst) == set(BENCHMARKS)


def test_unknown_benchmark_rejected_before_simulation():
    """No sweep workload exists for most Table I benchmarks: the
    calibrator must say so up front (typed, CLI-catchable), not
    surface an ImportError from the benchmark registry."""
    with pytest.raises(CalibrationError) as exc:
        run_calibration("nosuchbench", n=64)
    assert "nosuchbench" in str(exc.value)
    assert "vecadd" in str(exc.value)


def test_refit_on_a_warm_cache_simulates_nothing(cache, fits):
    """The fit is recomputed, not saved: on the cache that holds its
    ground truth, a second fit executes no point and equals the first."""
    engine = ExperimentEngine(cache=cache)
    for bench, fit in fits.items():
        assert run_calibration(bench, n=N, engine=engine) == fit
    assert engine.stats.executed == 0


def test_fingerprint_skew_refits(tmp_path):
    """A fit for other code never reuses that code's ground truth: its
    cells are keyed by the code fingerprint, so every one re-runs."""
    warm = ResultCache(tmp_path, fingerprint="rev-a")
    run_calibration("vecadd", n=64, cache=warm)
    assert len(warm) == len(VORTEX_CALIBRATION_CELLS) == 6
    engine = ExperimentEngine(cache=ResultCache(tmp_path,
                                                fingerprint="rev-b"))
    run_calibration("vecadd", n=64, engine=engine)
    assert engine.stats.executed == 6


def test_dse_refuses_another_benchmarks_fit(fits):
    """A fit's parameters and bound describe one benchmark, so the DSE
    will not screen or prune another with them."""
    with pytest.raises(CalibrationError) as exc:
        run_dse("vecadd", n=N, calibration=fits["transpose"],
                confirm="none")
    assert "transpose" in str(exc.value)
