"""Calibrated cost constants for the HLS area model.

The area model is *mechanistic* (costs attach to inferred LSUs, arithmetic
operators, local arrays, barriers and control) but its coefficients are
*calibrated* against the synthesis reports published in the paper (Tables
II and III), because we cannot run Quartus. The BRAM column is the one
the paper's failure analysis hinges on, and its coefficients reproduce the
published backprop sequence almost exactly:

==================  ======  =====================================
site kind            BRAM    paper evidence
==================  ======  =====================================
strided/indirect     1,005   "over 1,000 BRAM blocks per line" (§III-B)
pipelined load         167   Listing 3 / Table II O2 delta
streaming load         338   vecadd row of Table III
global store           150   Table II store residual
kernel base            239   vecadd row residual
==================  ======  =====================================

The ALUT/FF coefficients were fitted to the published rows by
non-negative least squares over the benchmark IRs in this repository.
The values below are frozen for reproducibility; the fitting script is
not included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lsu import LSUKind


@dataclass(frozen=True)
class SiteCost:
    aluts: int
    ffs: int
    brams: int
    dsps: int = 0


#: Per-LSU-site costs, keyed by inferred kind and store-ness.
LSU_COSTS: dict[tuple[LSUKind, bool], SiteCost] = {
    # (kind, is_store): cost
    (LSUKind.STREAMING, False): SiteCost(aluts=10_800, ffs=36_000, brams=338),
    (LSUKind.STREAMING, True): SiteCost(aluts=8_600, ffs=28_000, brams=150),
    (LSUKind.STRIDED, False): SiteCost(aluts=52_400, ffs=131_000, brams=1_005),
    (LSUKind.STRIDED, True): SiteCost(aluts=11_400, ffs=36_500, brams=150),
    (LSUKind.INDIRECT, False): SiteCost(aluts=52_400, ffs=131_000, brams=1_005),
    (LSUKind.INDIRECT, True): SiteCost(aluts=11_400, ffs=36_500, brams=150),
    (LSUKind.PIPELINED, False): SiteCost(aluts=5_200, ffs=15_600, brams=167, dsps=1),
    (LSUKind.PIPELINED, True): SiteCost(aluts=4_100, ffs=12_400, brams=96),
    (LSUKind.UNIFORM, False): SiteCost(aluts=2_400, ffs=6_200, brams=64),
    (LSUKind.UNIFORM, True): SiteCost(aluts=2_200, ffs=5_600, brams=64),
    (LSUKind.ATOMIC, False): SiteCost(aluts=14_800, ffs=31_000, brams=180),
    (LSUKind.ATOMIC, True): SiteCost(aluts=14_800, ffs=31_000, brams=180),
    (LSUKind.LOCAL_PORT, False): SiteCost(aluts=900, ffs=2_400, brams=4),
    (LSUKind.LOCAL_PORT, True): SiteCost(aluts=900, ffs=2_400, brams=4),
    (LSUKind.CONSTANT_CACHE, False): SiteCost(aluts=2_600, ffs=7_400, brams=96),
    (LSUKind.CONSTANT_CACHE, True): SiteCost(aluts=2_600, ffs=7_400, brams=96),
}

#: Fixed per-kernel cost: NDRange dispatch, kernel interface, CSRs.
KERNEL_BASE = SiteCost(aluts=42_000, ffs=148_000, brams=239)

#: Arithmetic operator costs (per static operator instance).
OP_COSTS: dict[str, SiteCost] = {
    "int_alu": SiteCost(aluts=96, ffs=160, brams=0),  # add/sub/logic/shift/cmp
    "int_mul": SiteCost(aluts=210, ffs=340, brams=0, dsps=1),
    "int_div": SiteCost(aluts=2_400, ffs=3_900, brams=0),
    "fp_add": SiteCost(aluts=720, ffs=1_200, brams=0, dsps=1),
    "fp_mul": SiteCost(aluts=640, ffs=1_050, brams=0, dsps=1),
    "fp_div": SiteCost(aluts=3_800, ffs=6_400, brams=2, dsps=2),
    "fp_transcendental": SiteCost(aluts=6_200, ffs=10_800, brams=4, dsps=4),
    "select": SiteCost(aluts=64, ffs=96, brams=0),
    "convert": SiteCost(aluts=220, ffs=380, brams=0),
}

#: Control costs.
BLOCK_COST = SiteCost(aluts=450, ffs=900, brams=0)
LOOP_COST = SiteCost(aluts=3_800, ffs=8_200, brams=6)
#: Barriers force work-item context buffering in the pipeline.
BARRIER_COST = SiteCost(aluts=16_000, ffs=42_000, brams=72)
PRINTF_COST = SiteCost(aluts=9_800, ffs=21_000, brams=48)

#: Local array storage: one M20K per 2,560 bytes, replicated for the
#: second port (HLS double-pumps local memories for NDRange pipelines).
M20K_BYTES = 2_560
LOCAL_REPLICATION = 2
