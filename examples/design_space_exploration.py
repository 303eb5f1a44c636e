#!/usr/bin/env python
"""Constrained design-space exploration — the paper's conclusion,
automated.

Question: *which Vortex configuration should I synthesize on the SX2800
for my workload?* The paper answers "it depends on the application, so
explore" (§III-C, §IV-A). This script runs the whole loop:

1. profile the Figure 7 vecadd cell once on the functional interpreter,
2. enumerate 80 (cores, warps, threads) points, dropping the ones whose
   synthesis area exceeds the SX2800 (area model — no Quartus),
3. rank the survivors with the analytical model (no simulation) and
   keep the area x predicted-cycles Pareto frontier,
4. confirm the three fastest-predicted frontier points on the SimX
   cycle simulator.
"""

from repro.harness.dse import run_dse
from repro.hls import STRATIX10_SX2800


def main():
    result = run_dse(
        "vecadd",
        device=STRATIX10_SX2800,
        core_counts=(1, 2, 4, 8, 16),  # big 16-core points exceed the part
        frontier_cap=3,
    )
    print(result.render())
    best = result.best
    print(f"\nrecommended configuration: {best.config.label()} "
          f"({best.area.aluts:,} ALUTs, {best.area.brams:,} BRAMs)")
    if result.rejected:
        biggest = max(result.rejected)
        print(f"example rejected point: {biggest[0]} ({biggest[1]})")


if __name__ == "__main__":
    main()
