"""The soft-GPU approach: a model of the Vortex RISC-V GPGPU.

Pipeline (paper Figures 4 and 5): kernel IR -> divergence analysis ->
code generation to the Vortex ISA (RV32IMF+A plus TMC / WSPAWN / SPLIT /
JOIN / PRED / BAR) -> binary image -> execution on the SimX cycle-level
simulator with configurable (cores, warps, threads).
"""

from .analytical import (
    KernelProfile,
    Prediction,
    VortexModelParams,
    predict,
)
from .asm import Assembler, Program, disassemble
from .codegen import CodeGen, VortexKernelImage, compile_kernel
from .isa import CSR, Instruction, decode, encode, format_instruction
from .regalloc import Allocation, allocate
from .runtime import VortexBackend, VortexCompiledKernel
from .simx import LaunchResult, Machine, VortexConfig

__all__ = [
    "Allocation",
    "KernelProfile",
    "Prediction",
    "VortexModelParams",
    "predict",
    "Assembler",
    "CSR",
    "CodeGen",
    "Instruction",
    "LaunchResult",
    "Machine",
    "Program",
    "VortexBackend",
    "VortexCompiledKernel",
    "VortexConfig",
    "VortexKernelImage",
    "allocate",
    "compile_kernel",
    "decode",
    "disassemble",
    "encode",
    "format_instruction",
]
