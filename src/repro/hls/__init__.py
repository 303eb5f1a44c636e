"""The HLS approach: a model of the Intel FPGA SDK for OpenCL.

Pipeline (paper Figure 3): kernel IR → LSU inference → area estimation →
capacity check against a Stratix 10 device → pipelined execution model.
Failure modes reproduce Table I: ``SynthesisError("bram")`` for programs
exceeding M20K capacity, ``SynthesisError("atomics")`` for atomic
functions on the HBM2 (heterogeneous-memory) board.

The package is a lazy namespace (:mod:`repro.lazy`): the Vortex
analytical model imports the LSU classifier, :mod:`repro.hls.lsu`,
without the HLS compiler and its models.
"""

from ..lazy import attach as _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    ".area": ("AreaReport", "estimate", "estimate_program"),
    ".compiler": ("HLSBackend", "HLSCompiledKernel", "aoc"),
    ".device": ("DDR4", "DEVICES", "HBM2", "STRATIX10_MX2100",
                "STRATIX10_SX2800", "FPGADevice", "MemorySystem",
                "get_device"),
    ".lsu": ("BURST_COALESCED_UNITS", "AffineIndexAnalysis", "LSUKind",
             "LSUSite", "classify_kernel"),
    ".perf": ("PipelineEstimate", "estimate_cycles"),
    ".report": ("format_breakdown", "format_table", "format_utilization"),
})
