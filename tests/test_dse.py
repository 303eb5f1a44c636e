"""Tests for the design-space-exploration harness."""

import pytest

from repro.harness import ExperimentEngine
from repro.harness.dse import (
    Candidate,
    DSEResult,
    explore_design_space,
    launch_rejection,
    pareto_frontier,
    workload_rejection,
)
from repro.harness.sweep import fig7_profile
from repro.hls import STRATIX10_MX2100, STRATIX10_SX2800
from repro.profiling import Profiler
from repro.vortex import VortexConfig
from repro.vortex.analytical import Prediction
from repro.vortex.area import VortexAreaReport


def _fake_simulate(config):
    """Deterministic, spawn-picklable stand-in for a SimX run."""
    return {"cycles": config.cores * 1000 + config.warps * 10
            + config.threads}


def _batch(point):
    """A DSE ``simulate`` batch callable that runs ``point`` on each
    config in turn."""
    return lambda configs: [point(config) for config in configs]


@pytest.fixture(scope="module")
def profile():
    return fig7_profile("vecadd", 1024)


class TestExploration:
    def test_infeasible_points_rejected_with_reason(self, profile):
        result = explore_design_space(
            profile, device=STRATIX10_SX2800,
            core_counts=(2, 32), warp_sizes=(8,), thread_sizes=(16,),
        )
        assert len(result.candidates) == 1
        assert len(result.rejected) == 1
        geometry, reason = result.rejected[0]
        assert geometry == (32, 8, 16)
        assert reason in ("aluts", "ffs", "bram", "dsps")

    def test_all_candidates_fit_device(self, profile):
        result = explore_design_space(profile, device=STRATIX10_MX2100,
                                      core_counts=(1, 2, 4, 8, 16))
        for cand in result.candidates:
            assert cand.area.aluts <= STRATIX10_MX2100.aluts
            assert cand.area.brams <= STRATIX10_MX2100.brams

    def test_best_prefers_simulated(self, profile):
        calls = []

        def fake_sim(config):
            calls.append(config.label())
            # Invert the analytical order: the "worst" predicted of the
            # simulated set gets the best simulated time.
            return {"cycles": 1000 - len(calls)}

        result = explore_design_space(
            profile, core_counts=(2,), warp_sizes=(2, 4),
            thread_sizes=(4,), simulate=_batch(fake_sim),
        )
        assert len(calls) == len(result.frontier) >= 2
        best = result.best
        assert best.config.label() == calls[-1]
        assert best.simulated_cycles == min(
            c.simulated_cycles for c in result.candidates
            if c.simulated_cycles is not None)

    def test_best_without_simulation_uses_prediction(self, profile):
        result = explore_design_space(profile, core_counts=(2, 4),
                                      warp_sizes=(4,), thread_sizes=(4, 8))
        best = result.best
        assert best.prediction.cycles == min(
            c.prediction.cycles for c in result.candidates)

    def test_all_rejected_raises_descriptive_error(self, profile):
        from repro.errors import ExplorationError, SynthesisError

        # Geometries far beyond the SX2800: every point area-rejected.
        result = explore_design_space(
            profile, device=STRATIX10_SX2800,
            core_counts=(64, 128), warp_sizes=(16,), thread_sizes=(16,),
        )
        assert not result.candidates
        with pytest.raises(ExplorationError) as exc:
            result.best
        assert isinstance(exc.value, SynthesisError)
        assert STRATIX10_SX2800.name in str(exc.value)
        assert exc.value.rejection_counts
        assert sum(exc.value.rejection_counts.values()) == len(
            result.rejected)

    def test_parallel_verification_matches_serial(self, profile):
        grid = dict(core_counts=(2,), warp_sizes=(2, 4), thread_sizes=(4,))
        serial = explore_design_space(profile, simulate=_batch(
            _fake_simulate), **grid)
        with ExperimentEngine(jobs=2) as engine:
            parallel = explore_design_space(
                profile, simulate=lambda configs: engine.run(
                    _fake_simulate, [(config,) for config in configs]),
                **grid)
        assert engine.stats.executed == len(parallel.frontier) >= 2
        serial_cycles = {c.config.label(): c.simulated_cycles
                         for c in serial.candidates}
        parallel_cycles = {c.config.label(): c.simulated_cycles
                          for c in parallel.candidates}
        assert serial_cycles == parallel_cycles

    def test_render(self, profile):
        result = explore_design_space(profile, core_counts=(2,),
                                      warp_sizes=(2, 4), thread_sizes=(4,))
        text = result.render()
        assert "Design-space exploration" in text
        assert "2c2w4t" in text or "2c4w4t" in text


# -- hierarchical mode: frontier, tie-breaking, screens ----------------------


def _cand(cores, warps, threads, cycles, aluts, simulated=None,
          sim_error=None):
    """A hand-built candidate (no models involved)."""
    config = VortexConfig(cores=cores, warps=warps, threads=threads)
    return Candidate(
        config=config,
        area=VortexAreaReport(config=config, aluts=aluts, ffs=0, brams=0,
                              dsps=0),
        prediction=Prediction(config_label=config.label(),
                              issue_bound=float(cycles), memory_bound=0.0,
                              latency_bound=0.0),
        simulated_cycles=simulated,
        sim_error=sim_error,
    )


class TestParetoFrontier:
    def test_dominated_points_dropped(self):
        a = _cand(1, 2, 2, cycles=100, aluts=10)
        b = _cand(2, 2, 2, cycles=200, aluts=5)
        dominated = _cand(4, 2, 2, cycles=300, aluts=20)  # slower & bigger
        frontier = pareto_frontier([dominated, b, a])
        assert [c.geometry for c in frontier] == [a.geometry, b.geometry]

    def test_ties_keep_single_representative(self):
        a = _cand(2, 2, 2, cycles=100, aluts=10)
        b = _cand(2, 2, 4, cycles=100, aluts=10)  # identical both axes
        frontier = pareto_frontier([b, a])
        assert len(frontier) == 1
        assert frontier[0].config.label() == min(a.config.label(),
                                                 b.config.label())

    def test_frontier_is_fastest_first_and_area_decreasing(self):
        cands = [_cand(c, 2, 2, cycles=cyc, aluts=al)
                 for c, cyc, al in ((1, 300, 3), (2, 100, 9),
                                    (4, 200, 6), (8, 250, 8))]
        frontier = pareto_frontier(cands)
        cycles = [c.prediction.cycles for c in frontier]
        aluts = [c.area.aluts for c in frontier]
        assert cycles == sorted(cycles)
        assert aluts == sorted(aluts, reverse=True)
        assert (8, 2, 2) not in [c.geometry for c in frontier]


class TestBestTieBreaking:
    def test_simulated_beats_predicted(self):
        fast_pred = _cand(1, 2, 2, cycles=10, aluts=5)
        slow_sim = _cand(2, 2, 2, cycles=500, aluts=9, simulated=400)
        result = DSEResult(device=STRATIX10_SX2800,
                           candidates=[fast_pred, slow_sim])
        assert result.best is slow_sim

    def test_simulated_tie_breaks_to_smaller_area_then_label(self):
        big = _cand(4, 2, 2, cycles=100, aluts=20, simulated=700)
        small = _cand(2, 2, 2, cycles=100, aluts=10, simulated=700)
        result = DSEResult(device=STRATIX10_SX2800,
                           candidates=[big, small])
        assert result.best is small
        twin_a = _cand(2, 2, 4, cycles=100, aluts=10, simulated=700)
        twin_b = _cand(2, 4, 2, cycles=100, aluts=10, simulated=700)
        result = DSEResult(device=STRATIX10_SX2800,
                           candidates=[twin_b, twin_a])
        assert result.best.config.label() == min(twin_a.config.label(),
                                                 twin_b.config.label())

    def test_sim_errors_do_not_count_as_simulated(self):
        errored = _cand(1, 2, 2, cycles=10, aluts=5,
                        sim_error="ERROR(RuntimeLaunchError)")
        ok = _cand(2, 2, 2, cycles=50, aluts=9)
        result = DSEResult(device=STRATIX10_SX2800,
                           candidates=[errored, ok])
        # nothing was *successfully* simulated: prediction decides
        assert result.best is errored

    def test_predicted_tie_breaks_to_smaller_area(self):
        big = _cand(4, 2, 2, cycles=100, aluts=20)
        small = _cand(2, 2, 2, cycles=100, aluts=10)
        result = DSEResult(device=STRATIX10_SX2800,
                           candidates=[big, small])
        assert result.best is small


class TestScreens:
    def test_launch_rejection(self):
        assert launch_rejection(VortexConfig(cores=4, warps=4,
                                             threads=4)) is None
        assert launch_rejection(VortexConfig(cores=32, warps=8,
                                             threads=2)) == "group-slots"
        assert launch_rejection(VortexConfig(cores=8, warps=16,
                                             threads=32)) == "stack-region"

    def test_workload_rejection_vecadd(self):
        reject = workload_rejection("vecadd", 1024)
        # local = min(16, w*t): 16 divides 1024, 12 does not
        assert reject(VortexConfig(cores=2, warps=4, threads=4)) is None
        assert reject(VortexConfig(cores=2, warps=4,
                                   threads=3)) == "workgroup"

    def test_workload_rejection_transpose(self):
        reject = workload_rejection("transpose", 1024)  # dim = 32
        # cap=16 -> 4x4 tile divides 32
        assert reject(VortexConfig(cores=2, warps=4, threads=4)) is None
        # cap=12 -> lx=4, ly=3: 3 does not divide 32
        assert reject(VortexConfig(cores=2, warps=4,
                                   threads=3)) == "workgroup"

    def test_run_dse_rejects_benchmark_without_a_cell(self):
        """Only benchmarks that declare a sweep cell have a workload to
        screen and confirm: anything else is refused before the screen,
        typed."""
        from repro.errors import CalibrationError
        from repro.harness.dse import run_dse

        with pytest.raises(CalibrationError) as exc:
            run_dse("sgemm", n=1024)
        assert "no calibration workload" in str(exc.value)

    def test_reject_hook_recorded_with_reason(self, profile):
        result = explore_design_space(
            profile, core_counts=(2,), warp_sizes=(4,),
            thread_sizes=(3, 4), reject=workload_rejection("vecadd", 1024),
        )
        assert [g for g, r in result.rejected
                if r == "workgroup"] == [(2, 4, 3)]
        assert [c.geometry for c in result.candidates] == [(2, 4, 4)]


class TestHierarchicalExploration:
    def test_confirms_only_the_frontier(self, profile):
        simulated = []

        def fake_sim(config):
            simulated.append(config.label())
            return {"cycles": 1_000_000}

        result = explore_design_space(
            profile, core_counts=(1, 2, 4), warp_sizes=(2, 4, 8),
            thread_sizes=(2, 4, 8), simulate=_batch(fake_sim),
        )
        frontier_labels = {c.config.label() for c in result.frontier}
        assert set(simulated) == frontier_labels
        assert 0 < len(frontier_labels) < len(result.candidates)

    def test_frontier_cap_limits_confirmations(self, profile):
        simulated = []

        def fake_sim(config):
            simulated.append(config.label())
            return {"cycles": 1_000_000}

        explore_design_space(
            profile, core_counts=(1, 2, 4), warp_sizes=(2, 4, 8),
            thread_sizes=(2, 4, 8), frontier_cap=2,
            simulate=_batch(fake_sim),
        )
        assert len(simulated) == 2

    def test_prune_keeps_a_floor_of_three(self, profile):
        simulated = []

        def fake_sim(config):
            simulated.append(config.label())
            return {"cycles": 1_000_000}

        result = explore_design_space(
            profile, core_counts=(1, 2, 4), warp_sizes=(2, 4, 8),
            thread_sizes=(2, 4, 8), prune_rel_err=0.0,
            simulate=_batch(fake_sim),
        )
        # a zero stated error would prune to 1; the floor hedges to 3
        assert len(simulated) == min(3, len(result.frontier))

    def test_screen_throughput_recorded(self, profile):
        prof = Profiler()
        result = explore_design_space(profile, core_counts=(1, 2, 4, 8),
                                      warp_sizes=(2, 4, 8, 16),
                                      thread_sizes=(2, 4, 8, 16),
                                      simulate=_batch(_fake_simulate),
                                      profiler=prof)
        assert result.screened == 64
        assert result.screen_seconds > 0.0
        assert result.screen_points_per_sec > 0.0
        # both phase times are the durations of their profiler spans
        spans = {e.name: e.dur / 1e6 for e in prof.events
                 if e.cat == "dse"}
        assert result.screen_seconds == spans["dse: screen"]
        assert result.confirm_seconds == spans["dse: confirm"] > 0.0

    def test_payload_is_bounded_and_complete(self, profile):
        result = explore_design_space(
            profile, core_counts=(1, 2, 4), warp_sizes=(2, 4, 8, 16),
            thread_sizes=(2, 4, 8, 16),
            simulate=_batch(lambda config: {"cycles": 12345}),
        )
        payload = result.to_payload()
        assert payload["screened"] == 48
        assert payload["feasible"] == len(result.candidates)
        assert payload["rejected"] == len(result.rejected)
        assert sum(payload["rejected_reasons"].values()) \
            == payload["rejected"]
        # only frontier/simulated candidates are itemised
        assert len(payload["candidates"]) < payload["feasible"]
        for row in payload["candidates"]:
            assert row["on_frontier"] or row["simulated_cycles"] is not None
        assert payload["best"]["config"] == result.best.config.label()
        assert payload["frontier_size"] == len(result.frontier)
