"""Tests for the calibration subsystem (``repro.calibrate``).

The contract under test: a fit never degrades the hand-tuned model on
its own calibration set, the artifact's *stated* error bounds hold
where they were measured, and — the regression that matters for the
hierarchical DSE — calibrated predictions stay within a stated
tolerance of SimX ground truth across the full Figure 7 grid, i.e.
also on cells the fit never saw.
"""

import json

import pytest

from repro.calibrate import (
    CalibrationArtifact,
    load_calibration,
    run_calibration,
)
from repro.calibrate.fit import (
    VORTEX_CALIBRATION_CELLS,
    _msle,
    _sample_prediction,
    collect_vortex_samples,
    error_bounds,
)
from repro.errors import CalibrationError
from repro.harness.result_cache import ResultCache, code_fingerprint
from repro.harness.sweep import THREAD_SIZES, WARP_SIZES
from repro.hls.perf import HLSModelParams
from repro.vortex.analytical import VortexModelParams

#: Calibration-set scale: large enough that the issue/memory/latency
#: regimes separate, small enough that SimX ground truth stays cheap.
N = 1024
BENCHMARKS = ("vecadd", "transpose")

#: Stated tolerance for *held-out* Figure 7 cells. The artifact's own
#: bounds are measured on the calibration cells; the full grid includes
#: ten cells per benchmark the fit never saw, where the analytical
#: model's structural error (not its fitted constants) dominates.
FIG7_GRID_TOLERANCE = 0.75

FIG7_CELLS = tuple((w, t) for w in WARP_SIZES for t in THREAD_SIZES)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One result cache for the module: the calibration cells are a
    subset of the Figure 7 grid, so the grid fixture below re-simulates
    only the held-out cells."""
    return ResultCache(tmp_path_factory.mktemp("calib-cache"))


@pytest.fixture(scope="module")
def artifact(cache):
    return run_calibration(benchmarks=BENCHMARKS, n=N, cache=cache)


@pytest.fixture(scope="module")
def grid_samples(cache):
    return collect_vortex_samples(benchmarks=BENCHMARKS, n=N,
                                  cells=FIG7_CELLS, cache=cache)


def _calibration_samples(grid_samples):
    cells = set(VORTEX_CALIBRATION_CELLS)
    return [s for s in grid_samples
            if (s.config.warps, s.config.threads) in cells]


class TestFitQuality:
    def test_fit_never_worse_than_defaults(self, artifact, grid_samples):
        samples = _calibration_samples(grid_samples)
        fitted = _msle(samples,
                       lambda s: _sample_prediction(s, vortex=artifact.vortex))
        stock = _msle(samples,
                      lambda s: _sample_prediction(
                          s, vortex=VortexModelParams()))
        assert fitted <= stock + 1e-12

    def test_stated_bounds_hold_on_calibration_set(self, artifact,
                                                   grid_samples):
        """The artifact's error bounds are a *measurement*: re-measuring
        the calibration cells with the fitted parameters must reproduce
        them (up to the artifact's rounding)."""
        samples = _calibration_samples(grid_samples)
        remeasured = error_bounds(samples, vortex=artifact.vortex)
        for bench in BENCHMARKS:
            stated = artifact.bound("vortex", bench)
            assert remeasured["vortex"][bench]["max_rel_err"] \
                <= stated + 1e-6
            # bounds are genuine fractions, not degenerate zeros/infs
            assert 0.0 <= stated < 1.0

    def test_fig7_grid_within_stated_tolerance(self, artifact,
                                               grid_samples):
        """Predicted vs simulated cycles across the full Figure 7 grid
        (16 cells per benchmark, most held out from the fit) stay within
        FIG7_GRID_TOLERANCE relative error. This is the bound that makes
        hierarchical DSE trustworthy: screening decisions are made on
        these predictions."""
        worst = {}
        for s in grid_samples:
            pred = _sample_prediction(s, vortex=artifact.vortex)
            rel = abs(pred - s.true_cycles) / s.true_cycles
            worst[s.benchmark] = max(worst.get(s.benchmark, 0.0), rel)
            assert rel <= FIG7_GRID_TOLERANCE, (
                f"{s.benchmark} {s.label}: predicted {pred:,.0f} vs "
                f"simulated {s.true_cycles:,.0f} — relative error "
                f"{rel:.2f} exceeds the stated {FIG7_GRID_TOLERANCE}")
        assert set(worst) == set(BENCHMARKS)

    def test_hls_screen_tracks_pipeline_model(self, artifact):
        """The HLS screen predictor is fitted against the full pipeline
        model across HLS_CALIBRATION_SIZES; its stated bound must be
        tight — the screen and the model share their cost structure."""
        for bench in BENCHMARKS:
            assert artifact.bound("hls", bench) <= 0.05


def test_unknown_benchmark_rejected_before_simulation():
    """No sweep workload exists for most Table I benchmarks: the
    calibrator must say so up front (typed, CLI-catchable), not
    surface an ImportError from the benchmark registry."""
    with pytest.raises(CalibrationError) as exc:
        run_calibration(benchmarks=("nosuchbench",), n=64)
    assert "nosuchbench" in str(exc.value)
    assert "vecadd" in str(exc.value)


class TestArtifact:
    def test_roundtrip(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "cal.json")
        loaded = load_calibration(path)
        assert loaded.fingerprint == artifact.fingerprint
        assert loaded.vortex == artifact.vortex
        assert loaded.hls == artifact.hls
        assert loaded.error_bounds == artifact.error_bounds

    def test_fingerprint_skew_rejected(self, artifact, tmp_path):
        stale = CalibrationArtifact(
            fingerprint="not-the-running-code",
            vortex=artifact.vortex, hls=artifact.hls,
            error_bounds=artifact.error_bounds)
        path = stale.save(tmp_path / "stale.json")
        with pytest.raises(CalibrationError) as exc:
            load_calibration(path)
        assert "different code" in str(exc.value)

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(CalibrationError) as exc:
            load_calibration(tmp_path / "nope.json")
        assert "calibrate" in str(exc.value)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CalibrationError):
            load_calibration(bad)
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(json.dumps({"schema": 99}))
        with pytest.raises(CalibrationError) as exc:
            load_calibration(wrong_schema)
        assert "schema" in str(exc.value)

    def test_bound_lookup(self):
        art = CalibrationArtifact(
            fingerprint=code_fingerprint(),
            vortex=VortexModelParams(), hls=HLSModelParams(),
            error_bounds={"vortex": {
                "vecadd": {"max_rel_err": 0.1, "mean_rel_err": 0.05,
                           "points": 6},
                "transpose": {"max_rel_err": 0.3, "mean_rel_err": 0.2,
                              "points": 6},
            }})
        assert art.bound("vortex", "vecadd") == pytest.approx(0.1)
        # unknown benchmark falls back to the worst stated bound
        assert art.bound("vortex", "sgemm") == pytest.approx(0.3)
        assert art.bound("vortex") == pytest.approx(0.3)
        with pytest.raises(CalibrationError):
            art.bound("hls")
