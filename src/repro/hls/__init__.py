"""The HLS approach: a model of the Intel FPGA SDK for OpenCL.

Pipeline (paper Figure 3): kernel IR → LSU inference → area estimation →
capacity check against a Stratix 10 device → pipelined execution model.
Failure modes reproduce Table I: ``SynthesisError("bram")`` for programs
exceeding M20K capacity, ``SynthesisError("atomics")`` for atomic
functions on the HBM2 (heterogeneous-memory) board.
"""

from .area import AreaReport, estimate, estimate_program
from .compiler import HLSBackend, HLSCompiledKernel, aoc
from .device import (
    DDR4,
    DEVICES,
    HBM2,
    STRATIX10_MX2100,
    STRATIX10_SX2800,
    FPGADevice,
    MemorySystem,
    get_device,
)
from .lsu import (
    BURST_COALESCED_UNITS,
    AffineIndexAnalysis,
    LSUKind,
    LSUSite,
    classify_kernel,
)
from .perf import PipelineEstimate, estimate_cycles
from .report import format_breakdown, format_table, format_utilization

__all__ = [
    "AffineIndexAnalysis",
    "AreaReport",
    "BURST_COALESCED_UNITS",
    "DDR4",
    "DEVICES",
    "FPGADevice",
    "HBM2",
    "HLSBackend",
    "HLSCompiledKernel",
    "LSUKind",
    "LSUSite",
    "MemorySystem",
    "PipelineEstimate",
    "STRATIX10_MX2100",
    "STRATIX10_SX2800",
    "aoc",
    "classify_kernel",
    "estimate",
    "estimate_cycles",
    "estimate_program",
    "format_breakdown",
    "format_table",
    "format_utilization",
    "get_device",
]
