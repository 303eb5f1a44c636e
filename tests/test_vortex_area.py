"""Tests for the Vortex synthesis-area model (Table IV) including
hypothesis-backed monotonicity properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.hls import STRATIX10_MX2100, STRATIX10_SX2800
from repro.vortex import VortexConfig
from repro.vortex.area import estimate, synthesize

geoms = st.tuples(
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([2, 4, 8, 16]),
    st.sampled_from([2, 4, 8, 16]),
)


class TestPaperRows:
    @pytest.mark.parametrize("cwt,paper", [
        ((2, 4, 16), (332_143, 459_349, 1_275, 896)),
        ((2, 8, 16), (336_568, 459_353, 1_299, 896)),
        ((2, 16, 16), (341_134, 478_735, 1_299, 896)),
        ((4, 8, 16), (617_748, 793_976, 2_235, 1_792)),
        ((4, 16, 16), (626_688, 827_757, 2_235, 1_792)),
    ])
    def test_within_two_percent(self, cwt, paper):
        c, w, t = cwt
        report = estimate(VortexConfig(cores=c, warps=w, threads=t))
        got = (report.aluts, report.ffs, report.brams, report.dsps)
        for g, p in zip(got, paper):
            assert abs(g - p) / p < 0.02

    def test_dsp_is_28_per_fpu_lane(self):
        r = estimate(VortexConfig(cores=2, warps=4, threads=16))
        assert r.dsps == 896  # 28 * 2 * 16


class TestMonotonicity:
    @given(geoms)
    @settings(max_examples=40, deadline=None)
    def test_more_cores_more_area(self, cwt):
        c, w, t = cwt
        small = estimate(VortexConfig(cores=c, warps=w, threads=t))
        big = estimate(VortexConfig(cores=c * 2, warps=w, threads=t))
        assert big.aluts > small.aluts
        assert big.ffs > small.ffs
        assert big.dsps > small.dsps

    @given(geoms)
    @settings(max_examples=40, deadline=None)
    def test_more_threads_more_area(self, cwt):
        c, w, t = cwt
        small = estimate(VortexConfig(cores=c, warps=w, threads=t))
        big = estimate(VortexConfig(cores=c, warps=w, threads=min(32, t * 2)))
        assert big.aluts > small.aluts

    @given(geoms)
    @settings(max_examples=40, deadline=None)
    def test_all_positive(self, cwt):
        c, w, t = cwt
        r = estimate(VortexConfig(cores=c, warps=w, threads=t))
        assert r.aluts > 0 and r.ffs > 0 and r.brams > 0 and r.dsps >= 0


class TestSynthesize:
    def test_paper_config_fits_both_boards(self):
        cfg = VortexConfig(cores=2, warps=4, threads=16)
        synthesize(cfg, STRATIX10_SX2800)
        synthesize(cfg, STRATIX10_MX2100)

    def test_monster_config_rejected_with_reason(self):
        with pytest.raises(SynthesisError) as exc:
            synthesize(VortexConfig(cores=64, warps=16, threads=16),
                       STRATIX10_SX2800)
        assert exc.value.reason in ("aluts", "ffs", "bram", "dsps")

    def test_largest_feasible_configuration(self):
        """Design-space exploration: find the biggest (C, W=8, T=16)
        fitting each board — the soft-GPU scaling question of §III-D."""
        def max_cores(device):
            cores = 0
            for c in range(1, 33):
                try:
                    synthesize(VortexConfig(cores=c, warps=8, threads=16),
                               device)
                    cores = c
                except SynthesisError:
                    break
            return cores

        big = max_cores(STRATIX10_SX2800)
        small = max_cores(STRATIX10_MX2100)
        assert big >= small  # SX2800 is the larger part
        assert big >= 4  # the paper synthesized 4-core configs
