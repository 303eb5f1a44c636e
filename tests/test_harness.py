"""Tests for the experiment harnesses (Tables I-IV; the Figure 7 sweep
has its own dedicated benchmark module and a smoke test here)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CalibrationError
from repro.harness import (
    PAPER_TABLE2,
    PAPER_TABLE4,
    ResultCache,
    render_heatmap,
    render_table,
    run_case_study,
    run_coverage,
    run_sweep,
    run_table3,
    run_table4,
)
from repro.harness.defaults import FIG7_BENCHMARKS
from repro.harness.sweep import (
    fig7_geometry,
    fig7_key,
    fig7_problem,
    fig7_workload,
)
from repro.service.jobs import MAX_N, MIN_N
from repro.vortex import VortexConfig


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["a", "bbb"], [["x", "1"], ["yy", "22"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len({len(l) for l in lines[2:]}) >= 1

    def test_render_heatmap_shades(self):
        values = {(2, 2): 1.0, (2, 4): 2.0, (4, 2): 1.5, (4, 4): 3.0}
        out = render_heatmap(values, title="H")
        assert "H" in out
        assert " 1.00" in out and " 3.00" in out


class TestCoverageHarness:
    @pytest.fixture(scope="class")
    def report(self):
        return run_coverage()

    def test_matches_paper(self, report):
        assert report.matches_paper()

    def test_counts(self, report):
        assert report.vortex_passes == 28
        assert report.hls_passes == 22

    def test_render_contains_reasons(self, report):
        text = report.render()
        assert "Not enough BRAM" in text
        assert "Atomics" in text
        assert text.count("X") == 6


class TestCaseStudyHarness:
    def test_bram_staircase(self):
        report = run_case_study()
        seq = report.bram_sequence()
        assert seq[0] > seq[1] > seq[2]
        for row, label in zip(report.rows, PAPER_TABLE2):
            assert row.label == label

    def test_render(self):
        text = run_case_study().render()
        assert "Original code" in text and "188%" in text


class TestAreaHarnesses:
    def test_table3_rows(self):
        report = run_table3()
        assert set(report.rows) == {"Vecadd", "Matmul", "Gauss", "BFS"}

    def test_table4_accuracy(self):
        report = run_table4()
        assert report.max_relative_error() < 0.02
        assert set(report.rows) == set(PAPER_TABLE4)


class TestSweepSmoke:
    def test_tiny_sweep_runs(self):
        # Full grid is exercised by benchmarks/test_fig7_sweep.py; here
        # just verify plumbing on a 2x2 corner with a small workload.
        result = run_sweep("vecadd", cores=2, n=512,
                           warp_sizes=(2, 4), thread_sizes=(2, 4),
                           base_config=VortexConfig(cores=2))
        assert len(result.cycles) == 4
        assert all(v > 0 for v in result.cycles.values())
        norm = result.normalized()
        assert min(norm.values()) == 1.0

    def test_render_names_the_sweeps_core_count(self):
        result = run_sweep("vecadd", cores=2, n=256, warp_sizes=(2,),
                           thread_sizes=(2,))
        assert result.cores == 2
        assert "normalized cycles, 2 cores (best = (2, 2))" \
            in result.render()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(CalibrationError):
            run_sweep("sgemm")

    def test_custom_grid_renders_missing_cells_as_dash(self):
        # A sweep that omits the paper's quoted cells (8,8)/(4,4)/(8,4)
        # must render "-" in the comparison table, not KeyError.
        import math

        from repro.harness import render_comparison

        result = run_sweep("vecadd", cores=2, n=512,
                           warp_sizes=(2,), thread_sizes=(2, 4))
        assert math.isnan(result.ratio(8, 8))
        assert math.isnan(result.ratio(8, 4))
        table = render_comparison([result])
        assert "- / 1.27" in table
        assert "- / 1.11" in table


#: one (warps, threads) configuration per lane count W x T.
_LANES = {1: (1, 1), 2: (1, 2), 4: (2, 2), 16: (4, 4), 64: (8, 8)}


@pytest.fixture(scope="module")
def key_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("keys"), fingerprint="keys")


def _cell(benchmark, n, lanes):
    """A cell's config and everything its launch reads: the argument
    bytes and scalars, and the launch geometry."""
    warps, threads = _LANES[lanes]
    config = VortexConfig(cores=2, warps=warps, threads=threads)
    problem = fig7_problem(benchmark, n)
    _, args = fig7_workload(benchmark, problem)
    launch = ([a.tobytes() if isinstance(a, np.ndarray) else a
               for a in args], fig7_geometry(benchmark, problem, lanes))
    return config, problem, launch


class TestFig7Keys:
    @given(n=st.integers(MIN_N, MAX_N), other=st.integers(MIN_N, MAX_N),
           lanes=st.sampled_from(sorted(_LANES)),
           other_lanes=st.sampled_from(sorted(_LANES)))
    # transpose's side steps from 16 to 32 at 993 and to 48 at 2257.
    @example(n=992, other=993, lanes=16, other_lanes=16)
    @example(n=2256, other=2257, lanes=4, other_lanes=4)
    @example(n=64, other=512, lanes=2, other_lanes=2)
    @example(n=16, other=992, lanes=64, other_lanes=64)
    @settings(max_examples=30, deadline=None)
    def test_keys_name_the_launch(self, key_cache, n, other, lanes,
                                  other_lanes):
        """Two cells share a content key exactly when they run the same
        launch on the same configuration."""
        for benchmark in FIG7_BENCHMARKS:
            config, problem, launch = _cell(benchmark, n, lanes)
            config2, problem2, launch2 = _cell(benchmark, other,
                                               other_lanes)
            same = config == config2 and launch == launch2
            assert (fig7_key(key_cache, benchmark, config, problem)
                    == fig7_key(key_cache, benchmark, config2, problem2)
                    ) is same, (benchmark, n, other, lanes, other_lanes)
