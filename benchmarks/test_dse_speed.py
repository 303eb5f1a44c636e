"""Hierarchical-DSE benchmark: end-to-end wall clock vs the flat
baseline, and analytical screen throughput.

Measures one cold-cache design-space exploration on a 648-point
(C, W, T) grid of the vecadd workload two ways:

* **hierarchical** — calibrated analytical screen, Pareto-frontier
  extraction, SimX confirmation of the pruned frontier only;
* **flat** — "rank the grid, simulate the top K", the search the
  hierarchy replaced, kept here only as the baseline: same screen
  (``confirm="none"``), then SimX on the K best-predicted points
  through the same cell runner (``run_cells``).

Both modes run with ``cache=None`` (no result-cache hits: every
confirmation simulates), so the recorded speedup is the real
simulations-avoided win, not cache warmth. The calibration is fitted
once outside both timed regions: both searches prune with the same fit,
and on a warm result cache a fit simulates nothing, so it is not a
per-exploration cost.

A run writes its measurement to ``.benchmarks/BENCH_dse.json``
(gitignored). The committed ``BENCH_dse.json`` is the regression
baseline: screen throughput more than ``ALLOWED_REGRESSION`` below the
committed value fails the run (wall-clock speedup is also recorded but
gated only against its hard floor — it is a ratio of two measured times
and noisy on loaded machines). Only ``REPRO_BENCH_UPDATE=1`` rewrites
the committed file, so a second run still gates against it rather than
against the first run.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.calibrate import run_calibration
from repro.harness.dse import run_dse
from repro.harness.sweep import run_cells

BENCH = "vecadd"
N = 1024

#: 8 x 9 x 9 = 648 enumerated design points — comfortably past the
#: >= 500-point floor the acceptance criteria name, and deliberately
#: including non-power-of-two geometries the screens must reject.
CORES = (1, 2, 3, 4, 6, 8, 12, 16)
WARPS = (1, 2, 4, 6, 8, 12, 16, 24, 32)
THREADS = (1, 2, 4, 6, 8, 12, 16, 24, 32)

#: flat-baseline confirmation count ("rank the grid, simulate the
#: top K" — the pre-hierarchical default).
FLAT_TOP_K = 64

#: hierarchical confirmation ceiling (the pruned frontier is usually
#: smaller still).
FRONTIER_CAP = 6

#: hard floors from the acceptance criteria.
MIN_SPEEDUP = 10.0
MIN_SCREEN_POINTS_PER_SEC = 1_000.0

ALLOWED_REGRESSION = 0.30

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_dse.json"
#: where a run writes its measurement unless REPRO_BENCH_UPDATE is set.
RUN_PATH = ROOT / ".benchmarks" / "BENCH_dse.json"


def _grid_kwargs():
    return dict(core_counts=CORES, warp_sizes=WARPS, thread_sizes=THREADS)


@pytest.fixture(scope="module")
def measurements():
    calibration = run_calibration(BENCH, n=N)

    start = time.perf_counter()
    hier = run_dse(BENCH, n=N, calibration=calibration,
                   confirm="frontier", frontier_cap=FRONTIER_CAP,
                   cache=None, **_grid_kwargs())
    hier_wall = time.perf_counter() - start

    start = time.perf_counter()
    flat = run_dse(BENCH, n=N, calibration=calibration, confirm="none",
                   **_grid_kwargs())
    top = sorted(flat.candidates,
                 key=lambda c: (c.prediction.cycles, c.area.aluts,
                                c.config.label()))[:FLAT_TOP_K]
    values = run_cells(BENCH, N, [c.config for c in top], label="flat top-k")
    for cand, value in zip(top, values):
        cand.simulated_cycles = value["cycles"]
    flat_wall = time.perf_counter() - start

    def confirmed(result):
        return sum(1 for c in result.candidates
                   if c.simulated_cycles is not None)

    return {
        "benchmark": BENCH,
        "n": N,
        "grid": {"cores": list(CORES), "warps": list(WARPS),
                 "threads": list(THREADS),
                 "points": len(CORES) * len(WARPS) * len(THREADS)},
        "hierarchical": {
            "wall_seconds": round(hier_wall, 4),
            "confirmations": confirmed(hier),
            "frontier_size": len(hier.frontier),
            "screen_points_per_sec": round(hier.screen_points_per_sec),
            "best_config": hier.best.config.label(),
            "best_cycles": hier.best.simulated_cycles,
        },
        "flat": {
            "wall_seconds": round(flat_wall, 4),
            "confirmations": confirmed(flat),
            "top_k": FLAT_TOP_K,
            "best_config": flat.best.config.label(),
            "best_cycles": flat.best.simulated_cycles,
        },
        "speedup": round(flat_wall / hier_wall, 1),
        "_results": (hier, flat),
    }


def test_same_winner_as_flat_baseline(measurements):
    """The whole point of the hierarchy: orders of magnitude fewer
    simulations must not change the answer. Simulation is
    deterministic, so this is exact, not statistical."""
    hier, flat = measurements["_results"]
    assert hier.best.config.label() == flat.best.config.label()
    assert hier.best.simulated_cycles == flat.best.simulated_cycles


def test_hierarchical_speedup_floor(measurements):
    h = measurements["hierarchical"]
    f = measurements["flat"]
    assert h["confirmations"] <= FRONTIER_CAP
    assert f["confirmations"] == FLAT_TOP_K
    assert measurements["speedup"] >= MIN_SPEEDUP, (
        f"hierarchical DSE is only {measurements['speedup']}x faster "
        f"than the flat top-{FLAT_TOP_K} baseline "
        f"({h['wall_seconds']}s vs {f['wall_seconds']}s) — the "
        f"acceptance floor is {MIN_SPEEDUP}x")


def test_screen_throughput_floor(measurements):
    pps = measurements["hierarchical"]["screen_points_per_sec"]
    assert pps >= MIN_SCREEN_POINTS_PER_SEC, (
        f"analytical screen ran at {pps:,.0f} points/sec — below the "
        f"{MIN_SCREEN_POINTS_PER_SEC:,.0f}/sec acceptance floor")


def test_screen_throughput_vs_committed_baseline(measurements):
    if not BENCH_PATH.exists() or os.environ.get("REPRO_BENCH_UPDATE"):
        pytest.skip("no committed BENCH_dse.json baseline")
    committed = json.loads(BENCH_PATH.read_text())
    ref = committed["hierarchical"]["screen_points_per_sec"]
    measured = measurements["hierarchical"]["screen_points_per_sec"]
    floor = (1.0 - ALLOWED_REGRESSION) * ref
    assert measured >= floor, (
        f"screen throughput {measured:,.0f} points/sec is more than "
        f"{ALLOWED_REGRESSION:.0%} below the committed {ref:,.0f} — "
        f"perf regression (REPRO_BENCH_UPDATE=1 regenerates the "
        f"baseline if this slowdown is intentional)")


def test_writes_bench_json(measurements):
    payload = {k: v for k, v in measurements.items()
               if not k.startswith("_")}
    payload["schema"] = 1
    payload["meta"] = {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    path = BENCH_PATH if os.environ.get("REPRO_BENCH_UPDATE") else RUN_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    h, f = payload["hierarchical"], payload["flat"]
    print(f"\nwrote {path}")
    print(f"  grid: {payload['grid']['points']} points, "
          f"screen {h['screen_points_per_sec']:,} points/sec")
    print(f"  hierarchical: {h['confirmations']} sims in "
          f"{h['wall_seconds']}s; flat: {f['confirmations']} sims in "
          f"{f['wall_seconds']}s -> {payload['speedup']}x")
