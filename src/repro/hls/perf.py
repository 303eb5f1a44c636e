"""HLS pipeline performance model.

The Intel SDK's NDRange mode streams work items through a deeply
pipelined datapath (§II-B): throughput is set by the initiation interval
(II) of the innermost pipelined structure, latency by the pipeline depth,
and everything is bounded by the memory interface. We model:

``cycles = depth + max(issue_cycles, memory_cycles)``

* ``depth`` — pipeline depth, proportional to the static instruction
  count (every operator adds stages).
* ``issue_cycles`` — one *iteration* (a work item, or one innermost-loop
  trip of a work item) enters the pipeline every II cycles. Dynamic
  iteration counts come from the reference interpreter's branch counters.
  Kernels containing atomics serialise the RMW point (II += 7).
* ``memory_cycles`` — the external interface moves one 512-bit line per
  cycle: coalesced (streaming) accesses amortise 16 words per cycle,
  strided/indirect accesses pay a word each, ``__pipelined_load`` units
  serialise at 4 cycles per access — the "area efficiency at the expense
  of performance" trade of Listing 3.

This is a first-order model: adequate for the paper's qualitative claims
(HLS wins on streaming kernels, loses once LSUs serialise), not a gate-
level simulation. Absolute numbers are indicative only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ocl.interp import RunResult
from ..ocl.ir import ATOMIC_OPS, Kernel, Opcode
from ..ocl.ndrange import NDRange
from ..profiling import Profiler, ensure_profiler
from .lsu import LSUKind, LSUSite

#: Words per cycle for a coalesced 512-bit interface (16 x float32).
COALESCED_WORDS_PER_CYCLE = 16
#: Cycles per word for word-granular (strided / indirect) access.
STRIDED_CYCLES_PER_WORD = 1.0
#: Cycles per word for a pipelined (serialising) LSU.
PIPELINED_CYCLES_PER_WORD = 4.0
#: Extra II for kernels with atomic RMW serialisation.
ATOMIC_II_PENALTY = 7
#: Pipeline stages per static instruction plus fixed front/back end.
STAGES_PER_INSTR = 3
BASE_DEPTH = 50


@dataclass
class PipelineEstimate:
    depth: int
    initiation_interval: int
    issue_cycles: int
    memory_cycles: int
    cycles: int

    def time_us(self, fmax_mhz: float) -> float:
        return self.cycles / fmax_mhz


def _site_cost(kind: LSUKind) -> float:
    if kind in (LSUKind.STREAMING, LSUKind.UNIFORM,
                LSUKind.CONSTANT_CACHE):
        return 1.0 / COALESCED_WORDS_PER_CYCLE
    if kind is LSUKind.PIPELINED:
        return PIPELINED_CYCLES_PER_WORD
    if kind is LSUKind.LOCAL_PORT:
        return 0.0  # on-chip, overlapped
    return STRIDED_CYCLES_PER_WORD


def estimate_cycles(
    kernel: Kernel,
    sites: list[LSUSite],
    ndrange: NDRange,
    run: RunResult,
    profiler: Profiler | None = None,
) -> PipelineEstimate:
    """Estimate the execution cycles of one launch from its dynamic
    profile (``run`` comes from the functional execution of the launch).

    When ``profiler`` is enabled, records the issue and memory counts,
    per-LSU-kind memory traffic, and the pipeline stages on a
    modelled-cycle timeline."""
    static_instrs = sum(1 for _ in kernel.instructions())
    depth = BASE_DEPTH + STAGES_PER_INSTR * static_instrs

    ii = 1
    if any(ins.op in ATOMIC_OPS for ins in kernel.instructions()):
        ii += ATOMIC_II_PENALTY

    # Iterations: every work item is one iteration, plus every dynamic
    # back-edge (loop trip) re-circulates the item through the pipeline.
    iterations = ndrange.total_items + run.op_counts.get(Opcode.BR, 0)
    issue_cycles = iterations * ii

    # Dynamic memory traffic split by static site kind. The interpreter
    # reports aggregate load/store counts; apportion them to sites by
    # static weight (uniform split per opcode class).
    loads_dyn = run.op_counts.get(Opcode.LOAD, 0)
    stores_dyn = run.op_counts.get(Opcode.STORE, 0)
    load_sites_all = [s for s in sites if not s.is_store]
    store_sites_all = [s for s in sites if s.is_store]

    memory_cycles = 0.0
    #: per-LSU-kind (words, cycles) breakdown, kept for profiling.
    kind_traffic: dict[str, list[float]] = {}

    def account(kind: LSUKind, words: float) -> float:
        cost = words * _site_cost(kind)
        entry = kind_traffic.setdefault(kind.value, [0.0, 0.0])
        entry[0] += words
        entry[1] += cost
        return cost

    if load_sites_all and loads_dyn:
        per_site = loads_dyn / len(load_sites_all)
        for s in load_sites_all:
            memory_cycles += account(s.kind, per_site)
    if store_sites_all and stores_dyn:
        per_site = stores_dyn / len(store_sites_all)
        for s in store_sites_all:
            memory_cycles += account(s.kind, per_site)
    atomics_dyn = sum(run.op_counts.get(op, 0) for op in ATOMIC_OPS)
    atomic_cycles = atomics_dyn * (STRIDED_CYCLES_PER_WORD
                                   + ATOMIC_II_PENALTY)
    memory_cycles += atomic_cycles

    cycles = depth + max(issue_cycles, int(memory_cycles))
    est = PipelineEstimate(
        depth=depth,
        initiation_interval=ii,
        issue_cycles=issue_cycles,
        memory_cycles=int(memory_cycles),
        cycles=cycles,
    )
    prof = ensure_profiler(profiler)
    if prof.enabled:
        _record_estimate(prof, kernel, est, iterations, kind_traffic,
                         atomics_dyn, atomic_cycles)
    return est


def _record_estimate(
    prof: Profiler,
    kernel: Kernel,
    est: PipelineEstimate,
    iterations: int,
    kind_traffic: dict[str, list[float]],
    atomics_dyn: int,
    atomic_cycles: float,
) -> None:
    """Fold one pipeline estimate into profiler counters and a modelled
    timeline: fill, steady-state issue, and the memory interface as
    overlapping spans. The report derives II and stage occupancy from
    the counts (:data:`repro.profiling.RATIOS`)."""
    prof.set_meta("timeline", "modelled pipeline cycles")
    prof.count_many({
        "depth": est.depth,
        "iterations": iterations,
        "issue_cycles": est.issue_cycles,
        "memory_cycles": est.memory_cycles,
        "cycles": est.cycles,
        "atomics": atomics_dyn,
        "atomic_serialisation_cycles": atomic_cycles,
    }, prefix="hls.")
    for kind, (words, cost) in sorted(kind_traffic.items()):
        prof.count(f"hls.lsu.{kind}.words", words)
        prof.count(f"hls.lsu.{kind}.cycles", cost)
    pid = 0
    prof.name_process(pid, f"hls pipeline: {kernel.name}")
    prof.name_thread(pid, 0, "wavefront")
    prof.name_thread(pid, 1, "issue (II)")
    prof.name_thread(pid, 2, "memory interface")
    bottleneck = ("memory" if est.memory_cycles > est.issue_cycles
                  else "issue")
    prof.complete("pipeline fill", "hls.stage", ts=0, dur=est.depth,
                  pid=pid, tid=0, args={"depth": est.depth})
    prof.complete(
        "steady-state issue", "hls.stage", ts=est.depth,
        dur=max(1, est.issue_cycles), pid=pid, tid=1,
        args={"II": est.initiation_interval, "iterations": iterations},
    )
    prof.complete(
        "memory interface", "hls.stage", ts=est.depth,
        dur=max(1, est.memory_cycles), pid=pid, tid=2,
        args={k: v[1] for k, v in kind_traffic.items()},
    )
    prof.instant(f"bottleneck: {bottleneck}", "hls.stage", ts=est.cycles,
                 pid=pid, tid=0)
