"""Layered performance benchmark of the repro experiment stack.

Run from the repository root::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 25 --trace 0

Workloads (each round in a fresh interpreter with a fresh temp dir
under ``.perfbench/tmp``, engine inline as with ``--jobs 1``):

* ``fig7``: ``run_sweep`` for vecadd and transpose over the paper's
  grid (4 cores, W, T in {2,4,8,16}, n = 4096) into a fresh
  ``ResultCache``. ``Machine.launch`` is ~95% of host time here.
* ``table1``: ``run_coverage(validate=True)`` into a fresh
  ``ResultCache``: the HLS flow's functional interpreter, SimX over 28
  different kernels, Vortex compiles, numpy references.
* ``service``: ``python -m repro serve --jobs 1`` in its own process,
  driven by ``loadgen.py`` (two closed-loop client threads, seeded
  fig7-cell campaigns at small n, a fifth of them repeats).

The seed only shapes the service stream; fig7 and table1 run fixed
work. A run repeats rounds until ``--seconds`` have passed (at least
:data:`MIN_ROUNDS`) and reports medians over them. Every time is
normalized host time (see ``speed.py``): this host's CPU speed drifts
too much within a minute for raw wall time to be steady.

End-to-end metrics (``--trace 0``):

* ``setup_s``: fresh interpreter to first point dispatched (imports,
  code fingerprint, ResultCache); for service also daemon start to
  first status reply and the warm-up jobs.
* ``wall_s``: host time of the fixed work after set-up (service: first
  submit to last result seen).
* ``jobs_per_s``: points (fig7 cells, Table I rows, service jobs)
  completed per second of ``wall_s``.
* ``job_p50_ms``, ``job_p90_ms``: per point, its own host time from
  the engine starting it to its result committed (fig7, table1), or
  submit to result seen by the client (service), pooled over rounds.

``--trace 1`` adds one traced round after the untraced ones and reports
the per-layer ledger (``tracing.py``): self time, counts and rates per
layer, ``residual_s``, the traced wall ``trace.wall_s`` they sum to,
and ``trace.overhead`` against the untraced median, and names the top
three layers by self time. Exact counts are remembered per repro code
fingerprint and benchmark digest in ``.perfbench/counts.json``; a
traced run whose counts differ from an earlier run of the same code
fails.

Every round checks outputs: fig7 cells against ``expected/fig7.json``,
Table I against the paper (every row validated against its numpy
reference), every service job against ``expected/service.json``. A
mismatch is a failed operation. Results, the merged Chrome trace and
the environment (nproc, Python and numpy versions) land under
``.perfbench/``. The last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import reference_sample  # noqa: E402

WORKLOADS = ("fig7", "table1", "service")
MIN_ROUNDS = 4

#: a run stops starting rounds, and kills a round still running, this
#: long after it started.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s",
    "job_p50_ms": "ms", "job_p90_ms": "ms",
}

#: per-layer metric -> unit (every workload reports all of them; a
#: layer a workload does not load reports 0).
PER_LAYER = {
    "setup.import_s": "s", "setup.fingerprint_s": "s",
    "setup.daemon_s": "s", "setup.warmup_s": "s",
    "simx.launches": "count", "simx.cycles": "count",
    "simx.instructions": "count", "simx.ff_cycles": "count",
    "simx.self_s": "s", "simx.cycles_per_s": "1/s",
    "vortex.compiles": "count", "vortex.compile_s": "s",
    "vortex.glue_s": "s",
    "ocl.interp_calls": "count", "ocl.interp_instructions": "count",
    "ocl.interp_s": "s", "ocl.interp_instr_per_s": "1/s",
    "hls.builds": "count", "hls.synthesis_failures": "count",
    "hls.build_s": "s", "hls.estimate_s": "s",
    "benchmarks.self_s": "s",
    "engine.points": "count", "engine.failed": "count",
    "engine.retried": "count", "engine.overhead_s": "s",
    "cache.gets": "count", "cache.hits": "count", "cache.puts": "count",
    "cache.get_s": "s", "cache.put_s": "s",
    "service.submit_ms": "ms", "service.poll_ms": "ms",
    "service.queued_ms": "ms", "service.running_ms": "ms",
    "service.accepted": "count", "service.coalesced": "count",
    "service.dedup_share": "fraction", "journal.appended": "count",
    "service.journal_s": "s", "service.handle_s": "s",
    "service.client_s": "s",
    "host.peak_rss_mb": "MB", "host.ref_loop_ms": "ms",
    "residual_s": "s", "trace.wall_s": "s", "trace.overhead": "fraction",
}

#: ledger layer -> its self-time metric.
LAYER_METRICS = {
    "setup.import": "setup.import_s", "setup.fingerprint":
    "setup.fingerprint_s", "setup.daemon": "setup.daemon_s",
    "setup.warmup": "setup.warmup_s", "simx": "simx.self_s",
    "vortex.compile": "vortex.compile_s", "vortex.glue": "vortex.glue_s",
    "ocl": "ocl.interp_s", "hls.build": "hls.build_s",
    "hls.estimate": "hls.estimate_s", "benchmarks": "benchmarks.self_s",
    "engine": "engine.overhead_s", "cache.get": "cache.get_s",
    "cache.put": "cache.put_s", "service.journal": "service.journal_s",
    "service.handle": "service.handle_s",
    "service.client": "service.client_s", "residual": "residual_s",
}

#: counts that must repeat exactly across runs of one commit.
EXACT_COUNTS = (
    "simx.cycles", "simx.instructions", "simx.ff_cycles",
    "ocl.interp_instructions", "vortex.compiles", "hls.synthesis_failures",
    "cache.puts", "service.accepted", "service.coalesced",
    "journal.appended",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env(root: Path) -> dict:
    """Pinned environment for round processes: no inherited REPRO_*
    switches, bytecode caching on, fixed hash seed, single-threaded
    BLAS/OpenMP."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")
           and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_round(root: Path, args, trace: bool, index: int,
              cpus: tuple[int, int], deadline: float) -> dict:
    name = f"{args.workload}-{os.getpid()}-{index}"
    tmp = root / ".perfbench" / "tmp" / name
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    try:
        cfg = {"workload": args.workload, "seed": args.seed,
               "round": index, "trace": trace, "tmp": str(tmp),
               "out": str(out),
               "cpu": cpus[0], "client_cpu": cpus[1],
               "pre_sample": reference_sample(cpus[0])}
        cfg["t_spawn"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rounds.py"), json.dumps(cfg)],
            env=child_env(root), cwd=root, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            output, _ = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"round {index} overran the run's "
                               f"{BUDGET_S:g}s budget")
        finally:
            # the round's own process group holds its daemon, if any
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not out.is_file():
            tail = output.decode(errors="replace")[-3000:]
            raise RuntimeError(f"round {index} exited with "
                               f"{proc.returncode}:\n{tail}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    mean of all order statistics. Fig. 7's 32 cells fall into two
    groups with a gap right at the median, where the plain sample
    median jumps across the gap from run to run."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n,
                      np.concatenate(([0.0], grid)), cdf)
    return float(np.diff(edges) @ x)


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "jobs_per_s": statistics.median(r["jobs"] / r["wall_s"]
                                        for r in rounds),
        "job_p50_ms": percentile(latencies, 0.5),
        "job_p90_ms": percentile(latencies, 0.9),
    }


def per_layer(traced: dict, rounds: list[dict], baseline_wall: float
              ) -> dict:
    layers = traced["ledger"]
    counters = traced["counters"]
    values = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in layers.items():
        values[LAYER_METRICS[layer]] = seconds
    for name in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
    for name, value in traced.get("service", {}).items():
        values[f"service.{name}"] = value
    values["service.dedup_share"] = traced.get("dedup_share", 0.0)
    if values["simx.self_s"]:
        values["simx.cycles_per_s"] = (values["simx.cycles"]
                                       / values["simx.self_s"])
    if values["ocl.interp_s"]:
        values["ocl.interp_instr_per_s"] = (
            values["ocl.interp_instructions"] / values["ocl.interp_s"])
    values["host.peak_rss_mb"] = statistics.median(
        r["peak_rss_mb"] for r in rounds)
    values["host.ref_loop_ms"] = statistics.median(
        ms for r in rounds + [traced] for ms in r["ref_ms"])
    values["trace.wall_s"] = traced["ledger_wall_s"]
    values["trace.overhead"] = traced["wall_s"] / baseline_wall - 1
    return values


def hotspots(traced: dict, top: int = 3) -> list[tuple[str, float, float]]:
    wall = traced["ledger_wall_s"]
    ranked = sorted(((s, layer) for layer, s in traced["ledger"].items()
                     if layer != "residual"), reverse=True)
    return [(layer, s, s / wall) for s, layer in ranked[:top]]


def benchmark_digest() -> str:
    """Digest of this benchmark's own files (code and recorded data)."""
    digest = hashlib.sha256()
    for path in sorted(HERE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(HERE).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts(root: Path, workload: str, fingerprint: str,
                 counters: dict) -> str | None:
    """Remember this code's exact counts (keyed by the repro code
    fingerprint and the benchmark's own digest); describe any
    difference from an earlier traced run of the same code."""
    path = root / ".perfbench" / "counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    counts = {name: counters.get(name, 0) for name in EXACT_COUNTS}
    code = f"{fingerprint}/{benchmark_digest()}"
    earlier = known.setdefault(workload, {}).get(code)
    if earlier is None:
        known[workload][code] = counts
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
        return None
    diff = {k: (earlier.get(k), v) for k, v in counts.items()
            if earlier.get(k) != v}
    return f"exact counts differ from an earlier run: {diff}" if diff else None


def report(args, rounds, traced, metrics, ledger_top, notes) -> None:
    env = rounds[0]["env"]
    log(f"perfbench {args.workload} seed={args.seed}: {len(rounds)} "
        f"untraced round(s){' + 1 traced' if traced else ''}; python "
        f"{env['python']}, numpy {env['numpy']}, nproc {env['nproc']}")
    for r in rounds:
        log(f"  round: setup {r['setup_s']:.3f}s wall {r['wall_s']:.3f}s "
            f"({len(r['latencies_ms'])} points, ref loop "
            f"{r['ref_ms_median']:.2f} ms, failed {r['failed']})")
    samples = sum(len(r["latencies_ms"]) for r in rounds)
    log(f"  latency percentiles over {samples} samples")
    for name, value in metrics.items():
        log(f"  {name:<28} {value:.6g}")
    for layer, seconds, share in ledger_top:
        log(f"  hotspot {layer:<18} {seconds:.3f}s {100 * share:.1f}% of "
            f"traced wall")
    for note in notes:
        log(f"  FAILED: {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # unwind through run_round's cleanup (which kills the round's
    # process group) instead of dying with a round still running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        log(f"error: {root} holds no repro source (src/repro); run from "
            f"the repository root")
        return 2

    # bytecode is cached for users after their first run, so compile
    # it before timing anything
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "repro"), str(HERE)],
                   env=child_env(root), check=True,
                   stdout=subprocess.DEVNULL)
    allowed = sorted(os.sched_getaffinity(0))
    cpus = (allowed[-1], allowed[0])
    os.sched_setaffinity(0, {cpus[0]})
    started = time.perf_counter()
    deadline = started + BUDGET_S
    rounds: list[dict] = []
    try:
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - started < args.seconds):
            rounds.append(run_round(root, args, False, len(rounds), cpus,
                                    deadline))
        traced = (run_round(root, args, True, len(rounds), cpus, deadline)
                  if args.trace else None)
    except RuntimeError as exc:
        log(f"error: {exc}")
        return 1

    everything = rounds + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    notes = [n for r in everything for n in r["notes"]]
    if traced:
        baseline = statistics.median(r["wall_s"] for r in rounds)
        metrics = per_layer(traced, rounds, baseline)
        ledger_top = hotspots(traced)
        mismatch = check_counts(root, args.workload, traced["fingerprint"],
                                traced["counters"])
        if mismatch:
            failed += 1
            notes.append(mismatch)
    else:
        metrics = end_to_end(rounds)
        ledger_top = []
    units = PER_LAYER if traced else END_TO_END

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        with open(results / f"{stem}.trace.json", "w") as fh:
            json.dump({"traceEvents": traced.pop("chrome")}, fh)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": rounds[0]["env"],
                   "metrics": metrics, "hotspots": ledger_top,
                   "rounds": rounds, "traced": traced}, fh, indent=1)
    report(args, rounds, traced, metrics, ledger_top, notes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
