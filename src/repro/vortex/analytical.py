"""Analytical performance model for Vortex configurations.

The paper's §IV-A names this as the open opportunity: "a valuable
opportunity exists for research aimed at minimizing or circumventing the
exploration space by leveraging the application's characteristics and
proposing an analytical model for Vortex's performance". This module
implements a first-order such model:

1. Profile the kernel **once**, configuration-independently, with the
   functional interpreter (dynamic operation counts per work item).
2. Predict cycles for any (cores, warps, threads) from three closed-form
   bounds, taking the slowest:

   * **issue bound** — dynamic warp-instructions × issue beats
     (``ceil(T / issue_lanes)``), divided across cores;
   * **memory bound** — distinct cache lines moved, throttled by the
     per-lane MSHR line concurrency (``mshrs / min(T, lanes_per_line)``)
     over the DRAM round trip;
   * **latency bound** — each warp serialises its waves' memory round
     trips; only ``W`` resident warps overlap them.

The model is validated against SimX in ``tests/test_analytical.py``:
it ranks the Figure 7 grid with high
correlation and places the true optimum in its top picks at a cost of
one interpreter run instead of 16 cycle simulations. The design-space
search built on it is :mod:`repro.harness.dse`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ocl.interp import RunResult, interpret
from ..ocl.ir import Kernel, Opcode
from ..ocl.ndrange import NDRange
from .simx.config import VortexConfig


@dataclass(frozen=True)
class KernelProfile:
    """Configuration-independent dynamic profile of one launch."""

    total_items: int
    ops_per_item: float
    loads_per_item: float
    stores_per_item: float
    #: fraction of loads assumed to coalesce with lane neighbours
    #: (unit-stride in the fastest dimension); measured crudely from the
    #: kernel's static access pattern.
    coalesced_fraction: float

    @staticmethod
    def collect(kernel: Kernel, args: list, ndrange: NDRange
                ) -> "KernelProfile":
        run: RunResult = interpret(kernel, args, ndrange)
        items = max(1, run.items_executed)
        loads = run.op_counts.get(Opcode.LOAD, 0)
        stores = run.op_counts.get(Opcode.STORE, 0)
        ops = run.dynamic_instructions
        coalesced = _coalesced_fraction(kernel)
        return KernelProfile(
            total_items=items,
            ops_per_item=ops / items,
            loads_per_item=loads / items,
            stores_per_item=stores / items,
            coalesced_fraction=coalesced,
        )


def _coalesced_fraction(kernel: Kernel) -> float:
    """Fraction of static global loads that coalesce across lanes,
    reusing the HLS flow's affine access classifier."""
    from ..hls.lsu import LSUKind, classify_kernel

    sites = [s for s in classify_kernel(kernel)
             if not s.is_store and s.kind is not LSUKind.LOCAL_PORT]
    if not sites:
        return 1.0
    good = sum(1 for s in sites
               if s.kind in (LSUKind.STREAMING, LSUKind.UNIFORM,
                             LSUKind.CONSTANT_CACHE))
    return good / len(sites)


@dataclass(frozen=True)
class Prediction:
    config_label: str
    issue_bound: float
    memory_bound: float
    latency_bound: float

    @property
    def cycles(self) -> float:
        return max(self.issue_bound, self.memory_bound, self.latency_bound)

    @property
    def bottleneck(self) -> str:
        bounds = {
            "issue": self.issue_bound,
            "memory": self.memory_bound,
            "latency": self.latency_bound,
        }
        return max(bounds, key=bounds.get)


#: Per-instruction overhead the wave scheduler adds (loop + masks).
_WAVE_OVERHEAD_OPS = 8.0
#: bytes per element (the IR is 32-bit).
_WORD = 4
#: Mixed row hit/miss service estimate per line.
_SERVICE = 12.0
#: Issue-slot waste per unit of MSHR over-subscription (replay storms).
_CONTENTION_ALPHA = 0.2


@dataclass(frozen=True)
class VortexModelParams:
    """The model's free parameters, exposed so ``repro.calibrate`` can
    fit them against SimX ground truth instead of hand-tuned constants.

    The defaults reproduce the historical hand-tuned model exactly, so
    every ``params=None`` call site behaves as before calibration
    existed. The three ``*_scale`` factors are pure fitting degrees of
    freedom (multipliers on each closed-form bound); ``contention_alpha``
    is the MSHR replay coefficient.
    """

    contention_alpha: float = _CONTENTION_ALPHA
    issue_scale: float = 1.0
    memory_scale: float = 1.0
    latency_scale: float = 1.0

    def to_payload(self) -> dict:
        return {
            "contention_alpha": self.contention_alpha,
            "issue_scale": self.issue_scale,
            "memory_scale": self.memory_scale,
            "latency_scale": self.latency_scale,
        }

    @staticmethod
    def from_payload(payload: dict) -> "VortexModelParams":
        return VortexModelParams(**{
            k: float(payload[k]) for k in
            VortexModelParams().to_payload()
        })


DEFAULT_VORTEX_PARAMS = VortexModelParams()


def predict(profile: KernelProfile, config: VortexConfig,
            params: VortexModelParams | None = None) -> Prediction:
    """Predict launch cycles for one configuration.

    ``params`` supplies calibrated model constants (see
    :mod:`repro.calibrate`); ``None`` keeps the hand-tuned defaults.
    """
    p = params or DEFAULT_VORTEX_PARAMS
    c, w, t = config.cores, config.warps, config.threads
    n = profile.total_items
    lanes = config.issue_lanes
    beats = max(1, -(-t // lanes))

    # --- issue bound -----------------------------------------------------
    # Per item: its share of the wave's instructions (ops/T) plus its
    # share of the wave-loop overhead, each issued in `beats` cycles.
    issue = n * (profile.ops_per_item / t) * beats / c \
        + n * _WAVE_OVERHEAD_OPS * beats / (t * c)

    # --- memory bound ------------------------------------------------------
    line_words = 64 // _WORD
    coalesced_lines = (profile.loads_per_item * profile.coalesced_fraction
                       * n / line_words)
    scattered_lines = (profile.loads_per_item
                       * (1.0 - profile.coalesced_fraction) * n)
    load_lines = coalesced_lines + scattered_lines
    store_lines = profile.stores_per_item * n / line_words  # write-combined
    lanes_per_line = min(t, line_words)
    concurrency = max(1.0, config.mshrs / lanes_per_line)
    roundtrip = config.dram.latency + _SERVICE
    memory = (load_lines / c) * roundtrip / concurrency \
        + (store_lines / c) * _SERVICE / config.dram.banks

    # --- latency bound ------------------------------------------------------
    # Each resident warp overlaps its waves' round trips with the others'.
    waves_total = n / (t * c)
    mem_ops_per_wave = (profile.loads_per_item + profile.stores_per_item) * t
    exposure = roundtrip if mem_ops_per_wave > 0 else 0.0
    latency = waves_total * (profile.ops_per_item * t / lanes + exposure) / w

    # --- MSHR contention ---------------------------------------------------
    # Outstanding load lanes scale with resident warps x lanes per load;
    # beyond the MSHR capacity, loads replay and waste issue slots.
    loads_in_flight = min(2.0, max(profile.loads_per_item, 0.0))
    demand = w * lanes_per_line * loads_in_flight
    pressure = max(0.0, demand / config.mshrs - 1.0)
    contention = 1.0 + p.contention_alpha * pressure

    return Prediction(
        config_label=config.label(),
        issue_bound=issue * contention * p.issue_scale,
        memory_bound=memory * p.memory_scale,
        latency_bound=latency * p.latency_scale,
    )

