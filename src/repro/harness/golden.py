"""Golden-trace regression harness for SimX and the reference interpreter.

The SimX hot loop is aggressively optimized (decode caching, lane
vectorization, batched LSU/DRAM event handling, per-core wake-up
horizons that let the clock jump the cycles in which no core can
change), and every one of those optimizations is required to be
*behaviour-preserving*: the machine must retire the same instructions,
count the same cycles, move the same cache/DRAM traffic and leave the
same bytes in device memory as the straightforward cycle-by-cycle
implementation. This module pins that contract.

The reference interpreter gets the same treatment: its dynamic op mix
is what the HLS pipeline model and the analytical Vortex screen price a
kernel from, so a reference point (``<benchmark>_s1_ref``) pins each
launch's dynamic instruction count, op counts per opcode and printf
output, plus the output-buffer hashes.

A **golden digest** is a small JSON document per benchmark/configuration
point recording everything the optimized simulator must reproduce
exactly:

* the final device-memory image (SHA-256 per launch),
* total and per-launch cycle counts,
* retired-instruction counts (including the SIMT-op split),
* cache and DRAM counter totals (accesses/hits/misses, row hits/misses),
* LSU stall/replay, scoreboard-stall and barrier-wait totals,
* dispatched-group counts and the kernel's printf output,
* a SHA-256 of every validated output buffer.

Digests are committed under ``tests/golden/`` and regenerated only via

    python -m repro golden --update

which is an *explicit etiquette point*: regenerating goldens means "I
intend to change simulated behaviour" and must be called out in review;
an optimization PR must never need it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..benchmarks.suite import all_benchmarks, run_benchmark
from ..durable import atomic_write
from ..errors import ReproError
from ..ocl.host import ReferenceBackend
from ..vortex import VortexBackend, VortexConfig

#: Digest schema version; bump when the digest *format* changes (which
#: forces a regeneration but is not itself a behaviour change).
DIGEST_VERSION = 1

#: Repository-relative home of the committed digests.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


@dataclass(frozen=True)
class GoldenPoint:
    """One benchmark/configuration point of the golden suite."""

    benchmark: str
    scale: int = 1
    cores: int = 4
    warps: int = 8
    threads: int = 8
    hbm: bool = False
    #: ``"simx"`` or ``"reference"`` (the functional interpreter; the
    #: geometry fields do not apply).
    backend: str = "simx"

    @property
    def name(self) -> str:
        if self.backend == "reference":
            return f"{self.benchmark}_s{self.scale}_ref"
        tag = f"{self.benchmark}_s{self.scale}" \
              f"_{self.cores}c{self.warps}w{self.threads}t"
        return tag + ("_hbm" if self.hbm else "")

    def config(self) -> VortexConfig:
        cfg = VortexConfig(cores=self.cores, warps=self.warps,
                           threads=self.threads)
        return cfg.hbm() if self.hbm else cfg


def golden_points() -> list[GoldenPoint]:
    """The committed golden suite: every Table-I benchmark at scale 1 on
    the default geometry, plus Fig. 7's pair at a larger scale and a few
    deliberately awkward geometries (multi-beat issue, tiny machine,
    HBM timing) that exercise the wake-up horizon and dispatch corners;
    then every Table-I benchmark at scale 1 on the reference
    interpreter."""
    points = [GoldenPoint(b.name) for b in all_benchmarks()]
    points += [
        GoldenPoint("vecadd", scale=4),
        GoldenPoint("transpose", scale=4),
        # threads > issue_lanes: every instruction issues in 4 beats.
        GoldenPoint("vecadd", cores=2, warps=4, threads=16),
        # minimal machine: dispatch pressure and long stall windows.
        GoldenPoint("transpose", cores=1, warps=2, threads=2),
        # alternative DRAM timing model.
        GoldenPoint("backprop", hbm=True),
        GoldenPoint("bfs", cores=2, warps=4, threads=4),
    ]
    points += [GoldenPoint(b.name, backend="reference")
               for b in all_benchmarks()]
    return points


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _output_hashes(result) -> dict:
    return {
        key: _sha256(np.ascontiguousarray(np.asarray(val)).tobytes())
        for key, val in sorted(result.outputs.items())
    }


def _reference_digest(point: GoldenPoint) -> dict:
    result = run_benchmark(point.benchmark, ReferenceBackend(),
                           scale=point.scale)
    if not result.ok:
        raise RuntimeError(
            f"golden point {point.name} failed on the reference "
            f"interpreter: {result.status}: {result.detail}"
        )
    launches = [{
        "dynamic_instructions": stats.dynamic_instructions,
        "op_counts": {op.value: n
                      for op, n in stats.extra["op_counts"].items()},
        "printf": list(stats.printf_output),
    } for stats in result.launches]
    return {
        "version": DIGEST_VERSION,
        "point": point.name,
        "benchmark": point.benchmark,
        "scale": point.scale,
        "config": "reference",
        "launches": launches,
        "outputs": _output_hashes(result),
    }


def compute_digest(point: GoldenPoint) -> dict:
    """Run one golden point on its backend and digest the result."""
    if point.backend == "reference":
        return _reference_digest(point)
    launches: list[dict] = []

    def hook(machine, result) -> None:
        totals = result.counters
        launches.append({
            "cycles": result.cycles,
            "instructions": result.instructions,
            "groups_dispatched": totals["groups_dispatched"],
            "memory_sha256": _sha256(machine.memory.data.tobytes()),
            "dcache": {name: totals[f"dcache.{name}"]
                       for name in ("accesses", "hits", "misses")},
            "dram": {name: totals[f"dram.{name}"]
                     for name in ("requests", "row_hits", "row_misses")},
            "stalls": {
                "lsu": totals["lsu_stalls"],
                "lsu_replays": totals["lsu_replays"],
                "scoreboard": totals["scoreboard_stalls"],
                "barrier_waits": totals["barrier_waits"],
            },
            "simt_instructions": totals["simt_instructions"],
            "printf": list(result.printf_output),
        })

    backend = VortexBackend(point.config(), launch_hook=hook)
    result = run_benchmark(point.benchmark, backend, scale=point.scale)
    if not result.ok:
        raise RuntimeError(
            f"golden point {point.name} failed on SimX: "
            f"{result.status}: {result.detail}"
        )
    return {
        "version": DIGEST_VERSION,
        "point": point.name,
        "benchmark": point.benchmark,
        "scale": point.scale,
        "config": point.config().label() + ("+hbm" if point.hbm else ""),
        "total_cycles": result.total_cycles,
        "launches": launches,
        "outputs": _output_hashes(result),
    }


def digest_path(point: GoldenPoint) -> Path:
    return GOLDEN_DIR / f"{point.name}.json"


def load_digest(point: GoldenPoint) -> dict | None:
    path = digest_path(point)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_digest(point: GoldenPoint, digest: dict) -> Path:
    path = digest_path(point)
    atomic_write(path, (json.dumps(digest, indent=1, sort_keys=True)
                        + "\n").encode(), fsync=False)
    return path


def diff_digest(golden: dict, fresh: dict) -> list[str]:
    """Human-readable differences between two digests (empty == match).

    Walks both documents structurally so a mismatch names the exact
    counter that moved (``launches[0].dram.row_hits: 10 != 12``) instead
    of dumping two JSON blobs.
    """
    diffs: list[str] = []

    def walk(path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(f"{path}.{key}" if path else str(key),
                     a.get(key), b.get(key))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")

    walk("", golden, fresh)
    return diffs


@dataclass
class GoldenReport:
    checked: int = 0
    updated: int = 0
    missing: list[str] = field(default_factory=list)
    mismatched: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.mismatched

    def render(self) -> str:
        lines = [f"golden suite: {self.checked} point(s) checked"
                 + (f", {self.updated} written" if self.updated else "")]
        for name in self.missing:
            lines.append(f"  MISSING {name} (run `python -m repro golden "
                         f"--update`)")
        for name, diffs in self.mismatched.items():
            lines.append(f"  MISMATCH {name}:")
            lines.extend(f"    {d}" for d in diffs[:12])
            if len(diffs) > 12:
                lines.append(f"    ... and {len(diffs) - 12} more")
        if self.ok:
            lines.append("  all digests match")
        return "\n".join(lines)


def run_golden(update: bool = False,
               only: list[str] | None = None) -> GoldenReport:
    """Verify (or, with ``update=True``, regenerate) the golden suite.
    ``only`` names benchmarks or points; a name that matches no point
    raises :class:`~repro.errors.ReproError` (a typo must not pass)."""
    points = golden_points()
    if only:
        unknown = set(only).difference(*({p.benchmark, p.name}
                                         for p in points))
        if unknown:
            raise ReproError(f"unknown golden point(s): "
                             f"{', '.join(sorted(unknown))}")
        points = [p for p in points if {p.benchmark, p.name} & set(only)]
    report = GoldenReport()
    for point in points:
        fresh = compute_digest(point)
        report.checked += 1
        if update:
            write_digest(point, fresh)
            report.updated += 1
            continue
        golden = load_digest(point)
        if golden is None:
            report.missing.append(point.name)
            continue
        diffs = diff_digest(golden, fresh)
        if diffs:
            report.mismatched[point.name] = diffs
    return report


__all__ = [
    "DIGEST_VERSION",
    "GOLDEN_DIR",
    "GoldenPoint",
    "GoldenReport",
    "compute_digest",
    "diff_digest",
    "digest_path",
    "golden_points",
    "load_digest",
    "run_golden",
    "write_digest",
]
