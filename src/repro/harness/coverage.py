"""Experiment E1 — Table I: benchmark coverage of both flows.

Runs every Table-I benchmark through the Vortex backend (SX2800, DDR4)
and the Intel-HLS model (MX2100, HBM2 — the board each flow used in the
paper) and records pass/fail with the failure reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..benchmarks import all_benchmarks, get_benchmark, run_benchmark
from ..errors import PointFailure
from ..hls import HLSBackend, STRATIX10_MX2100
from ..vortex import VortexBackend, VortexConfig
from .engine import ExperimentEngine, default_engine
from .result_cache import ResultCache
from .tables import render_table

#: The paper's Table I: benchmark -> (vortex_ok, hls_ok, reason).
PAPER_TABLE1: dict[str, tuple[bool, bool, str]] = {
    "Vecadd": (True, True, ""),
    "Sgemm": (True, True, ""),
    "Psort": (True, True, ""),
    "Saxpy": (True, True, ""),
    "Sfilter": (True, True, ""),
    "Dotproduct": (True, True, ""),
    "SPMV": (True, True, ""),
    "Cutcp": (True, True, ""),
    "Stencil": (True, True, ""),
    "Lbm": (True, False, "Not enough BRAM"),
    "OCLPrintf": (True, True, ""),
    "Blackscholes": (True, True, ""),
    "Matmul": (True, True, ""),
    "Transpose": (True, True, ""),
    "Kmeans": (True, True, ""),
    "Nearn": (True, True, ""),
    "Gaussian": (True, True, ""),
    "BFS": (True, True, ""),
    "Backprop": (True, False, "Not enough BRAM"),
    "Streamcluster": (True, True, ""),
    "pathfinder": (True, True, ""),
    "nw": (True, True, ""),
    "B+tree": (True, False, "Not enough BRAM"),
    "LavaMD": (True, True, ""),
    "Hybridsort": (True, False, "Atomics"),
    "Particlefilter": (True, True, ""),
    "Dwd2d": (True, False, "Not enough BRAM"),
    "LUD": (True, False, "Not enough BRAM"),
}


@dataclass
class CoverageCell:
    passed: bool
    reason: str = ""
    detail: str = ""
    #: the experiment point itself failed (crash/timeout), as opposed
    #: to the benchmark legitimately failing on the flow.
    error: bool = False

    @property
    def mark(self) -> str:
        if self.error:
            return "E"
        return "O" if self.passed else "X"


@dataclass
class CoverageReport:
    rows: dict[str, tuple[CoverageCell, CoverageCell]] = field(
        default_factory=dict
    )

    @property
    def vortex_passes(self) -> int:
        return sum(1 for v, _ in self.rows.values() if v.passed)

    @property
    def hls_passes(self) -> int:
        return sum(1 for _, h in self.rows.values() if h.passed)

    @property
    def errors(self) -> int:
        """Rows whose experiment point failed (engine-level ERROR)."""
        return sum(1 for v, h in self.rows.values() if v.error or h.error)

    def matches_paper(self) -> bool:
        """True if every pass/fail cell and failure reason matches the
        published Table I."""
        for name, (vortex, hls) in self.rows.items():
            want_v, want_h, want_reason = PAPER_TABLE1[name]
            if vortex.passed != want_v or hls.passed != want_h:
                return False
            if not hls.passed and hls.reason != want_reason:
                return False
        return True

    def render(self) -> str:
        rows = []
        for name, (vortex, hls) in self.rows.items():
            reason = hls.reason if not hls.passed else (
                vortex.reason if not vortex.passed else "")
            rows.append([name, vortex.mark, hls.mark, reason])
        return render_table(
            ["Benchmark Name", "Vortex", "Intel SDK", "Reason to Fail"],
            rows,
            title="Table I: Benchmark Coverage",
        )


def _cell(result) -> CoverageCell:
    if result.ok:
        return CoverageCell(passed=True)
    if result.fail_reason == "bram":
        return CoverageCell(False, "Not enough BRAM", result.detail)
    if result.fail_reason == "atomics":
        return CoverageCell(False, "Atomics", result.detail)
    return CoverageCell(False, result.status, result.detail)


def _cell_payload(cell: CoverageCell) -> dict:
    return {"passed": cell.passed, "reason": cell.reason,
            "detail": cell.detail, "error": cell.error}


def _cell_from_payload(payload: dict) -> CoverageCell:
    return CoverageCell(passed=payload["passed"], reason=payload["reason"],
                        detail=payload["detail"],
                        error=payload.get("error", False))


def _error_cell(failure: PointFailure) -> CoverageCell:
    return CoverageCell(passed=False, reason=f"ERROR({failure.exc_type})",
                        detail=failure.message, error=True)


def coverage_point(bench_name: str, validate: bool) -> dict:
    """One Table-I row (both flows, the default Vortex configuration, at
    the paper's scale) — the engine's unit of work."""
    bench = get_benchmark(bench_name)
    vortex_result = run_benchmark(bench, VortexBackend(VortexConfig()),
                                  validate=validate)
    hls_result = run_benchmark(bench, HLSBackend(device=STRATIX10_MX2100),
                               validate=validate)
    return {
        "table_name": bench.table_name,
        "vortex": _cell_payload(_cell(vortex_result)),
        "hls": _cell_payload(_cell(hls_result)),
    }


def run_coverage(
    validate: bool = True,
    cache: ResultCache | None = None,
    engine: ExperimentEngine | None = None,
) -> CoverageReport:
    """Regenerate Table I (validating outputs on both flows).

    The 28 rows are independent points on ``engine`` (see
    :func:`~repro.harness.engine.default_engine`), memoised as plain
    JSON. Under its ``keep_going`` a row whose point crashed or timed
    out (after retries) renders as ``E`` cells with an ``ERROR(...)``
    reason and counts in :attr:`CoverageReport.errors`, instead of
    aborting the whole table.
    """
    engine = default_engine(engine, cache)
    benches = all_benchmarks()
    points = [(bench.name, validate) for bench in benches]
    keys = [
        None if engine.cache is None else engine.cache.key(
            kind="table1-row", benchmark=bench.name, validate=validate)
        for bench in benches
    ]
    values = engine.run(coverage_point, points, keys=keys, label="table1")
    report = CoverageReport()
    for bench, value in zip(benches, values):
        if isinstance(value, PointFailure):
            report.rows[bench.table_name] = (_error_cell(value),
                                             _error_cell(value))
            continue
        report.rows[value["table_name"]] = (
            _cell_from_payload(value["vortex"]),
            _cell_from_payload(value["hls"]),
        )
    return report
