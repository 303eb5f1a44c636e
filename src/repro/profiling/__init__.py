"""Unified profiling/tracing across the three executors.

One :class:`Profiler` records counters and timeline events from the
reference interpreter (``repro.ocl.interp``), the SimX cycle simulator
(``repro.vortex.simx``) and the HLS pipeline model (``repro.hls.perf``);
:class:`ProfileReport` renders them as text and exports Chrome-trace /
JSON artifacts. See ``python -m repro profile --help`` for the CLI.
"""

from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    RATIOS,
    Profiler,
    TraceEvent,
    ensure_profiler,
)
from .report import ProfileReport

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "ProfileReport",
    "Profiler",
    "RATIOS",
    "TraceEvent",
    "ensure_profiler",
]
