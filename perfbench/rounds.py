"""One measured round of one workload, in a fresh interpreter.

``run.py`` starts ``python3 perfbench/rounds.py <config-json>`` for every
round; this process imports ``repro`` itself, so set-up time covers a
user's cold start. The config names the workload, the temp dir, the
CPU to work on, whether to trace, and the reference sample the parent
took right before the spawn. The round writes one JSON result file.

Batch rounds (``fig7``, ``table1``) pass :class:`PointClock` as the
public ``cache=`` argument: the engine commits each point through it,
so it timestamps every point and takes a reference sample between
points without touching the program.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedLog  # noqa: E402
from tracing import Tracer, ledger  # noqa: E402

clock = time.perf_counter

FIG7_BENCHMARKS = ("vecadd", "transpose")

#: every counted failure is described, up to this many per round.
MAX_FAILURE_NOTES = 5


def load_expected(name: str) -> dict:
    with open(HERE / "expected" / f"{name}.json") as fh:
        return json.load(fh)


def point_clock(cache_cls):
    """A ResultCache subclass that marks the end of each point's commit
    and samples the reference loop between points."""

    class PointClock(cache_cls):
        def __init__(self, root, speed: SpeedLog):
            super().__init__(root)
            self.speed = speed
            self.mark = clock()
            self.points: list[tuple[float, float]] = []

        def get(self, key):
            value = super().get(key)
            self.mark = clock()
            return value

        def put(self, key, value):
            super().put(key, value)
            self.points.append((self.mark, clock()))
            self.speed.sample()
            self.mark = clock()

    return PointClock


def check_fig7(sweeps, notes: list[str]) -> tuple[int, int]:
    expected = load_expected("fig7")
    attempted = failed = 0
    for sweep in sweeps:
        want = expected[sweep.benchmark]
        for cell, (cycles, stalls) in want.items():
            w, t = (int(x) for x in cell.split("x"))
            attempted += 1
            got = (sweep.cycles.get((w, t)), sweep.lsu_stalls.get((w, t)))
            if got != (cycles, stalls):
                failed += 1
                notes.append(f"fig7 {sweep.benchmark} w{w} t{t}: "
                             f"{got} != recorded {(cycles, stalls)}")
    return attempted, failed


def check_table1(report, paper: dict, notes: list[str]) -> tuple[int, int]:
    failed = 0
    for name, (want_v, want_h, reason) in paper.items():
        row = report.rows.get(name)
        ok = row is not None
        if ok:
            vortex, hls = row
            ok = (not vortex.error and not hls.error
                  and vortex.passed == want_v and hls.passed == want_h
                  and (hls.passed or hls.reason == reason))
        if not ok:
            failed += 1
            notes.append(f"table1 {name}: {row}")
    if not failed and not report.matches_paper():
        failed += 1
        notes.append("table1: matches_paper() is False")
    return len(paper), failed


def batch_round(cfg: dict) -> dict:
    t_spawn = cfg["t_spawn"]
    from repro.harness import (PAPER_TABLE1, ResultCache, code_fingerprint,
                               run_coverage, run_sweep)
    t_import = clock()
    fingerprint = code_fingerprint()
    speed = SpeedLog(cfg["cpu"], [tuple(cfg["pre_sample"])])
    cache = point_clock(ResultCache)(Path(cfg["tmp"]) / "cache", speed)
    t_setup = clock()
    speed.sample()
    tracer = Tracer().install() if cfg["trace"] else None
    t0 = clock()
    if cfg["workload"] == "fig7":
        outputs = [run_sweep(b, cache=cache) for b in FIG7_BENCHMARKS]
    else:
        outputs = run_coverage(cache=cache, validate=True)
    t1 = clock()
    if tracer is not None:
        tracer.uninstall()

    notes: list[str] = []
    if cfg["workload"] == "fig7":
        attempted, failed = check_fig7(outputs, notes)
    else:
        attempted, failed = check_table1(outputs, PAPER_TABLE1, notes)
    norm = speed.normalizer()
    result = {
        "setup_s": norm(t_spawn, t_setup),
        "setup": {"import_s": norm(t_spawn, t_import),
                  "fingerprint_s": norm(t_import, t_setup)},
        "wall_s": norm(t0, t1),
        "wall_raw_s": t1 - t0,
        "latencies_ms": [1e3 * norm(a, b) for a, b in cache.points],
        "jobs": len(cache.points),
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:MAX_FAILURE_NOTES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ref_ms": [1e3 * d for d in speed.durations()],
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        payload = tracer.payload()
        setup_spans = [(t_spawn, t_import, "setup.import"),
                       (t_import, t_setup, "setup.fingerprint")]
        work = [(a, b, layer) for layer, a, b, *_ in payload["spans"]]
        result["ledger"] = ledger([(0, setup_spans), (1, work)],
                                  [(t_spawn, t_setup), (t0, t1)], norm)
        result["ledger_wall_s"] = result["setup_s"] + result["wall_s"]
        result["counters"] = payload["counters"]
        result["chrome"] = payload["chrome"]
    return result


def environment() -> dict:
    import os
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg["workload"] == "service":
        from loadgen import service_round
        result = service_round(cfg)
    else:
        result = batch_round(cfg)
    result["env"] = environment()
    result["ref_ms_median"] = statistics.median(result["ref_ms"])
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
