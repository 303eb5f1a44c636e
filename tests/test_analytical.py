"""Tests for the analytical Vortex performance model (the paper's §IV-A
"challenge 1" research direction, implemented).

Validation criteria are regret-based: the model exists to *recommend a
configuration without running 16 cycle simulations*, so what matters is
how much slower its top pick is than the true optimum — not exact cycle
prediction.
"""

import numpy as np
import pytest

from repro.harness.dse import explore_design_space
from repro.harness.sweep import fig7_profile
from repro.ocl import NDRange
from repro.vortex import VortexConfig
from repro.vortex.analytical import KernelProfile, Prediction, predict


@pytest.fixture(scope="module")
def vecadd_profile():
    return fig7_profile("vecadd", 4096)


def fig7_predictions(profile) -> dict:
    """The model's price for each (warps, threads) cell of the 4-core
    Figure 7 grid, as the DSE screen computes it."""
    result = explore_design_space(profile, core_counts=(4,))
    return {(c.config.warps, c.config.threads): c.prediction
            for c in result.candidates}


def predicted_best(predictions: dict) -> tuple[int, int]:
    return min(predictions, key=lambda k: predictions[k].cycles)


class TestProfile:
    def test_vecadd_profile_shape(self, vecadd_profile):
        p = vecadd_profile
        assert p.total_items == 4096
        assert p.loads_per_item == pytest.approx(2.0)
        assert p.stores_per_item == pytest.approx(1.0)
        assert p.coalesced_fraction == 1.0
        assert p.ops_per_item > 3

    def test_indirect_kernel_has_low_coalescing(self):
        from repro.ocl import GLOBAL_FLOAT32, GLOBAL_INT32, KernelBuilder

        b = KernelBuilder("gather")
        idx = b.param("idx", GLOBAL_INT32)
        data = b.param("data", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_FLOAT32)
        gid = b.global_id(0)
        b.store(out, gid, b.load(data, b.load(idx, gid)))
        kernel = b.finish()
        n = 64
        rng = np.random.default_rng(1)
        args = [rng.permutation(n).astype(np.int32),
                rng.random(n, dtype=np.float32),
                np.zeros(n, dtype=np.float32)]
        prof = KernelProfile.collect(kernel, args, NDRange.create(n, 16))
        assert prof.coalesced_fraction == pytest.approx(0.5)


class TestPredictions:
    def test_bounds_positive_and_bottleneck_named(self, vecadd_profile):
        pred = predict(vecadd_profile, VortexConfig(cores=4, warps=4,
                                                    threads=4))
        assert pred.cycles > 0
        assert pred.bottleneck in ("issue", "memory", "latency")

    def test_tiny_config_is_latency_or_issue_bound(self, vecadd_profile):
        pred = predict(vecadd_profile, VortexConfig(cores=4, warps=2,
                                                    threads=2))
        assert pred.bottleneck in ("latency", "issue")
        big = predict(vecadd_profile, VortexConfig(cores=4, warps=8,
                                                   threads=8))
        assert pred.cycles > big.issue_bound

    def test_explore_covers_grid(self, vecadd_profile):
        preds = fig7_predictions(vecadd_profile)
        assert len(preds) == 16
        assert all(isinstance(p, Prediction) for p in preds.values())


class TestAgainstSimulator:
    """One interpreter profile vs sixteen cycle simulations."""

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.harness import run_sweep

        return run_sweep("vecadd")

    def test_recommends_true_optimum_for_vecadd(self, vecadd_profile,
                                                sweep):
        preds = fig7_predictions(vecadd_profile)
        assert predicted_best(preds) == sweep.best == (4, 4)

    def test_rank_correlation(self, vecadd_profile, sweep):
        preds = fig7_predictions(vecadd_profile)
        keys = sorted(preds)
        predicted = [preds[k].cycles for k in keys]
        actual = [sweep.cycles[k] for k in keys]
        # Spearman rank correlation without scipy dependence on stats api:
        import scipy.stats

        rho = scipy.stats.spearmanr(predicted, actual).statistic
        assert rho > 0.6

    def test_regret_of_top_pick(self, vecadd_profile, sweep):
        pick = predicted_best(fig7_predictions(vecadd_profile))
        regret = sweep.cycles[pick] / sweep.cycles[sweep.best] - 1.0
        assert regret <= 0.15
