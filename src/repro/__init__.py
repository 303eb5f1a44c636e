"""repro: HLS vs. soft-GPU execution of GPU applications on FPGA.

A full-system Python reproduction of "Comparative Analysis of Executing
GPU Applications on FPGA: HLS vs. Soft GPU Approaches" (IPPS 2024).

Subpackages
-----------
``repro.ocl``
    Mini-OpenCL frontend: kernel IR + builder DSL, functional interpreter,
    NDRange, and an OpenCL-style host API with pluggable device backends.
``repro.passes``
    Middle-end analyses and transforms shared by both backends (CFG,
    dominators, liveness, CSE, DCE, divergence analysis, loop analysis).
``repro.hls``
    The HLS approach (Intel FPGA SDK for OpenCL model): LSU inference,
    area model, device database, synthesis failure modes, pipeline
    performance model.
``repro.vortex``
    The soft-GPU approach (Vortex model): RISC-V+SIMT ISA, assembler,
    code generator with divergence lowering, cycle-level simulator,
    runtime, and synthesis-area model.
``repro.benchmarks``
    The 28-benchmark suite from the paper's Table I.
``repro.harness``
    Experiment drivers that regenerate every table and figure, on a
    parallel, memoising engine with a content-addressed result cache.
``repro.calibrate``
    Fits the Vortex analytical model against SimX and measures its
    error bounds, the input of the design-space exploration.
``repro.profiling``
    One profiler for the three executors, with text, JSON and
    Chrome-trace reports.
``repro.service``
    A crash-safe experiment daemon and its client
    (``python -m repro serve``, ``submit``, ``status``, ``results``,
    ``drain``).

``repro.harness``, ``repro.service`` and ``repro.hls`` are lazy
namespaces: a name imports its submodule on first use, so a client or
the CLI's parser starts without loading the simulator, and the Vortex
analytical model loads only the HLS flow's LSU classifier.
"""

__version__ = "1.0.0"
