"""Command-line entry point: regenerate the paper's artifacts.

Usage::

    python -m repro table1      # coverage
    python -m repro table2      # backprop case study
    python -m repro table3      # HLS areas
    python -m repro table4      # Vortex areas
    python -m repro fig7        # warp/thread sweep (slowest, ~1 min)
    python -m repro all

    # unified profiling of one benchmark on one executor:
    python -m repro profile vecadd --backend simx
    python -m repro profile bfs --backend hls --trace-out bfs.trace.json

    # calibrated analytical models + hierarchical DSE:
    python -m repro calibrate --out .repro-calibration.json
    python -m repro dse vecadd --calibration .repro-calibration.json \\
        --cores 1,2,4,8,16 --warps 1,2,4,8,16,32 --threads 1,2,4,8,16
    python -m repro dse vecadd --confirm none   # screen only (ms)

    # experiment service (crash-safe job queue over the engine):
    python -m repro serve --state-dir .repro-service --jobs 4
    python -m repro submit '{"kind": "fig7-cell", "benchmark": "vecadd",
                             "warps": 4, "threads": 4}' --wait
    python -m repro status            # daemon health
    python -m repro results j000001-ab12cd34ef
    python -m repro drain             # finish queued work, then exit
    python -m repro serve --resume    # pick up after a crash
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys


def _make_cache(args: argparse.Namespace):
    """Build the result cache the flags (or REPRO_CACHE_DIR) ask for."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = (getattr(args, "cache_dir", "")
                 or os.environ.get("REPRO_CACHE_DIR", ""))
    if not cache_dir:
        return None
    from .harness import ResultCache

    return ResultCache(cache_dir)


def _engine(args: argparse.Namespace):
    """The one engine a subcommand runs on, from the flags it parsed.

    The CLI defaults to ``--keep-going`` (the library default is
    fail-fast): a hand-run campaign should render every row it can and
    mark the rest ERROR, exactly as the paper's Table I records
    failures instead of omitting them.
    """
    from .harness import ExperimentEngine

    return ExperimentEngine(
        jobs=getattr(args, "jobs", 1), cache=_make_cache(args),
        retries=getattr(args, "retries", 0),
        point_timeout=getattr(args, "point_timeout", None),
        keep_going=getattr(args, "keep_going", True))


def _checkpoint(args: argparse.Namespace) -> dict | None:
    """The checkpoint spec the ``--checkpoint-*`` flags ask for, or
    ``None``."""
    if not getattr(args, "checkpoint_dir", ""):
        return None
    from .vortex.simx.checkpoint import checkpoint_spec

    return checkpoint_spec(args.checkpoint_dir, args.checkpoint_every,
                           args.point_timeout)


def _bounded(convert, lo, strict: bool = False, hi=None):
    """argparse ``type=`` for a number ``>= lo`` (``> lo`` if strict)
    and, if given, ``<= hi``: a bad value is a usage error, not a
    constructor traceback."""
    def parse(text: str):
        value = convert(text)  # ValueError: "invalid int value: 'x'"
        if not (value > lo if strict else value >= lo):  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {lo}, got {text}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


_COUNT, _POSITIVE = _bounded(int, 0), _bounded(int, 1)
_SECONDS = _bounded(float, 0, strict=True)
_PORT = _bounded(int, 0, hi=65535)


def _sizes(spec: str) -> tuple[int, ...]:
    """argparse ``type=`` for a comma-separated list of sizes, each
    ``>= 1``; an empty list keeps the subcommand's default grid."""
    try:
        return tuple(_POSITIVE(tok) for tok in spec.split(",")
                     if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want sizes like 2,4,8, got {spec!r}") from None


def _table1(args: argparse.Namespace) -> int:
    from .harness import run_coverage

    with _engine(args) as engine:
        report = run_coverage(engine=engine)
    print(report.render())
    print(f"\nVortex {report.vortex_passes}/28, "
          f"Intel SDK {report.hls_passes}/28; "
          f"matches paper: {report.matches_paper()}")
    if report.errors:
        print(f"{report.errors} row(s) hit an engine-level ERROR "
              f"(crash/timeout after retries)")
    print(engine.stats.summary())
    return 1 if report.errors else 0


def _table2(args: argparse.Namespace) -> int:
    from .harness import run_auto_cse_ablation, run_case_study

    print(run_case_study().render())
    ablation = run_auto_cse_ablation()
    print(f"\nauto-CSE ablation (BRAMs): {ablation}")
    return 0


def _table3(args: argparse.Namespace) -> int:
    from .harness import run_table3

    print(run_table3().render())
    return 0


def _table4(args: argparse.Namespace) -> int:
    from .harness import run_table4

    report = run_table4()
    print(report.render())
    print(f"\nmax relative error vs paper: "
          f"{report.max_relative_error():.2%}")
    return 0


def _fig7(args: argparse.Namespace) -> int:
    from .harness import render_comparison, run_sweep
    from .harness.sweep import THREAD_SIZES, WARP_SIZES

    warp_sizes = getattr(args, "warp_sizes", ()) or WARP_SIZES
    thread_sizes = getattr(args, "thread_sizes", ()) or THREAD_SIZES
    checkpoint = _checkpoint(args)
    # One engine for both benchmarks: the run summary aggregates the
    # whole figure (32 points by default) and the worker pool is spun
    # up once, not per benchmark.
    with _engine(args) as engine:
        results = []
        for benchmark in ("vecadd", "transpose"):
            result = run_sweep(benchmark, warp_sizes=warp_sizes,
                               thread_sizes=thread_sizes, engine=engine,
                               checkpoint=checkpoint)
            results.append(result)
            print(result.render())
            print()
        print(render_comparison(results))
        print()
        print(engine.stats.summary())
        return 1 if engine.stats.failed else 0


def _golden(args: argparse.Namespace) -> int:
    from .harness import run_golden

    only = [tok for spec in (args.only or []) for tok in spec.split(",")
            if tok.strip()]
    report = run_golden(update=args.update, only=only or None)
    print(report.render())
    if args.update:
        print("\ndigests written under tests/golden/ — regenerating "
              "goldens asserts an INTENDED behaviour change; call it out "
              "in review (see EXPERIMENTS.md).")
    return 0 if (args.update or report.ok) else 1


def _profile(args: argparse.Namespace) -> int:
    from .harness import run_profile_cached
    from .vortex import VortexConfig

    config = None
    if args.backend == "simx" and (args.cores or args.warps or args.threads):
        base = VortexConfig()
        config = base.with_geometry(
            cores=args.cores or base.cores,
            warps=args.warps or base.warps,
            threads=args.threads or base.threads,
        )
    with _engine(args) as engine:
        report, summary, cache_hit = run_profile_cached(
            args.benchmark,
            backend=args.backend,
            scale=args.scale,
            config=config,
            cycle_bucket=args.bucket,
            validate=not args.no_validate,
            engine=engine,
        )
    print(report.render())
    trace_out = args.trace_out or (
        f"profile_{args.benchmark}_{args.backend}.trace.json")
    path = report.save_chrome_trace(trace_out)
    print(f"\nchrome trace written to {path} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.json_out:
        print(f"summary JSON written to {report.save_json(args.json_out)}")
    launches = summary["launches"]
    cycles = summary["total_cycles"]
    print(f"{launches} launch(es)"
          + (f", {cycles:,} total cycles" if cycles is not None else "")
          + (" [result cache hit: no simulation ran]" if cache_hit else ""))
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    from .calibrate import DEFAULT_ARTIFACT_PATH, run_calibration

    benchmarks = tuple(
        tok for tok in (args.benchmarks or "").split(",") if tok.strip()
    ) or ("vecadd", "transpose")
    with _engine(args) as engine:
        artifact = run_calibration(benchmarks=benchmarks, n=args.n,
                                   engine=engine)
    path = artifact.save(args.out or DEFAULT_ARTIFACT_PATH)
    print(f"calibrated against SimX at n={args.n} "
          f"({', '.join(benchmarks)})")
    for bench, bounds in sorted(artifact.error_bounds.items()):
        print(f"  {bench:12s} max rel err "
              f"{bounds['max_rel_err']:.3f}  mean "
              f"{bounds['mean_rel_err']:.3f}  "
              f"({bounds['points']} points)")
    print(f"artifact written to {path} "
          f"(fingerprint {artifact.fingerprint[:12]}…)")
    return 0


def _dse(args: argparse.Namespace) -> int:
    from .calibrate import (DEFAULT_ARTIFACT_PATH, load_calibration,
                            run_calibration)
    from .harness import run_dse

    with _engine(args) as engine:
        calibration = None
        if args.calibrate:
            calibration = run_calibration(
                benchmarks=(args.benchmark,), n=min(args.n, 1024),
                engine=engine)
        elif args.calibration:
            calibration = load_calibration(args.calibration)
        result = run_dse(
            args.benchmark, n=args.n,
            core_counts=args.cores or (1, 2, 4, 8),
            warp_sizes=args.warps or (2, 4, 8, 16),
            thread_sizes=args.threads or (2, 4, 8, 16),
            calibration=calibration,
            confirm=args.confirm,
            frontier_cap=args.frontier_cap,
            engine=engine, checkpoint=_checkpoint(args))
    print(result.render())
    if calibration is None and args.confirm == "frontier":
        print("\n(uncalibrated screen: pass --calibrate or "
              f"--calibration {DEFAULT_ARTIFACT_PATH} to prune the "
              "frontier with measured error bounds)")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_payload(), fh, indent=1, sort_keys=True)
        print(f"result JSON written to {args.json_out}")
    errored = sum(1 for c in result.candidates if c.sim_error)
    return 1 if errored else 0


def _serve(args: argparse.Namespace) -> int:
    from .service import ExperimentDaemon, resolve_state_dir

    daemon = ExperimentDaemon(
        state_dir=resolve_state_dir(args.state_dir),
        jobs=args.jobs, host=args.host, port=args.port,
        max_queue=args.max_queue, per_client=args.per_client,
        batch_max=args.batch_max, resume=args.resume,
        retries=args.retries, point_timeout=args.point_timeout,
        checkpoint_dir=args.checkpoint_dir or None,
        checkpoint_every=args.checkpoint_every)
    daemon.start()
    host, port = daemon.address
    print(f"experiment daemon pid {os.getpid()} serving {host}:{port} "
          f"(state: {daemon.state_dir})", flush=True)
    return daemon.serve()


def _parse_job_specs(specs: list[str]) -> list[dict]:
    jobs = []
    for spec in specs:
        try:
            jobs.append(json.loads(spec))
        except ValueError:
            raise SystemExit(
                f"job spec is not valid JSON: {spec!r} "
                f'(want e.g. \'{{"kind": "probe", "value": 1}}\')')
    return jobs


def _client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(state_dir=args.state_dir,
                         retries=args.service_retries)


def _print_reply(reply: dict) -> None:
    print(json.dumps(reply, indent=2, sort_keys=True))


def _submit(args: argparse.Namespace) -> int:
    client = _client(args)
    replies = [client.submit(job) for job in _parse_job_specs(args.job)]
    if not args.wait:
        for reply in replies:
            note = " (coalesced)" if reply.get("coalesced") else ""
            print(f"{reply['job_id']} {reply['state']}{note}")
        return 0
    failed = 0
    for reply in replies:
        result = client.wait(reply["job_id"], timeout=args.timeout)
        _print_reply(result)
        if result.get("state") == "failed":
            failed += 1
    return 1 if failed else 0


def _status(args: argparse.Namespace) -> int:
    _print_reply(_client(args).status(args.job_id or None))
    return 0


def _results(args: argparse.Namespace) -> int:
    client = _client(args)
    failed = 0
    for job_id in args.job_id:
        if args.wait:
            reply = client.wait(job_id, timeout=args.timeout)
        else:
            reply = client.results(job_id)
        _print_reply(reply)
        if reply.get("state") == "failed":
            failed += 1
    return 1 if failed else 0


def _drain(args: argparse.Namespace) -> int:
    client = _client(args)
    reply = client.drain()
    print(f"draining: {reply.get('queued', 0)} job(s) queued")
    if args.wait:
        client.wait_gone(timeout=args.timeout)
        print("daemon exited")
    return 0


_ARTIFACTS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig7": _fig7,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures, or "
                    "profile one benchmark on one executor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand parses only the engine flags it reads, from the
    # narrowest set up: profile < calibrate < table1 < fig7/dse.
    point_flags = argparse.ArgumentParser(add_help=False)
    point_flags.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="memoise experiment points on disk under PATH (also honours "
             "the REPRO_CACHE_DIR environment variable); entries are "
             "keyed by the inputs plus a fingerprint of the repro "
             "source, so code changes invalidate them automatically")
    point_flags.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir / REPRO_CACHE_DIR for this run")
    point_flags.add_argument(
        "--retries", type=_COUNT, default=0, metavar="N",
        help="retry a failed experiment point up to N times with "
             "exponential backoff before recording it as an ERROR "
             "(recovers transient faults and killed workers)")

    engine_flags = argparse.ArgumentParser(add_help=False,
                                           parents=[point_flags])
    engine_flags.add_argument(
        "--jobs", type=_COUNT, default=1, metavar="N",
        help="worker processes for independent experiment points "
             "(default 1 = serial; 0 = one per CPU)")
    engine_flags.add_argument(
        "--point-timeout", type=_SECONDS, default=None, metavar="SECONDS",
        help="per-point watchdog: a point running longer is cancelled "
             "(its stuck worker pool is torn down and respawned) and "
             "counts as failed/retried")

    campaign_flags = argparse.ArgumentParser(add_help=False,
                                             parents=[engine_flags])
    policy = campaign_flags.add_mutually_exclusive_group()
    policy.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        default=True,
        help="render failed points as ERROR rows/cells and finish the "
             "campaign (default; exit status 1 if anything failed)")
    policy.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the whole campaign on the first failed point "
             "(completed points stay in the cache, so a re-run resumes)")

    sim_flags = argparse.ArgumentParser(add_help=False,
                                        parents=[campaign_flags])
    sim_flags.add_argument(
        "--checkpoint-dir", default="", metavar="PATH",
        help="snapshot running simulations under PATH so a preempted or "
             "killed point resumes mid-flight instead of restarting "
             "(fig7 and dse confirmations; with --point-timeout a point "
             "checkpoints out before the watchdog would kill it)")
    sim_flags.add_argument(
        "--checkpoint-every", type=_POSITIVE, default=None, metavar="CYCLES",
        help="snapshot cadence in simulated cycles "
             "(default 2000000; implies nothing without "
             "--checkpoint-dir)")

    artifact_flags = {"table1": [campaign_flags], "fig7": [sim_flags]}
    for name, fn in _ARTIFACTS.items():
        p = sub.add_parser(name, help=f"regenerate {name}",
                           parents=artifact_flags.get(name, []))
        if name == "fig7":
            p.add_argument(
                "--warp-sizes", type=_sizes, default=(), metavar="W,W,...",
                help="comma-separated warp counts (default 2,4,8,16)")
            p.add_argument(
                "--thread-sizes", type=_sizes, default=(),
                metavar="T,T,...",
                help="comma-separated thread counts (default 2,4,8,16)")
        p.set_defaults(func=fn)
    p_all = sub.add_parser("all", help="regenerate every table and figure")
    p_all.set_defaults(func=None)

    p = sub.add_parser(
        "golden",
        help="verify every committed golden-trace digest (SimX and "
             "reference interpreter, tests/golden/), or regenerate them "
             "with --update",
    )
    p.add_argument("--update", action="store_true",
                   help="rewrite the digests from the current executors "
                        "(an explicit behaviour-change assertion)")
    p.add_argument("--only", action="append", metavar="BENCH[,BENCH...]",
                   help="restrict to these benchmarks / point names")
    p.set_defaults(func=_golden)

    p = sub.add_parser(
        "profile",
        parents=[point_flags],
        help="run one benchmark under the unified profiler and emit a "
             "text report plus a Chrome-trace JSON file",
    )
    p.add_argument("benchmark", help="Table-I benchmark name, e.g. vecadd")
    p.add_argument("--backend", choices=("interp", "simx", "hls"),
                   default="simx")
    p.add_argument("--scale", type=_POSITIVE, default=1,
                   help="workload scale factor (default 1)")
    p.add_argument("--cores", type=_COUNT, default=0,
                   help="simx: core count override (0 keeps the default)")
    p.add_argument("--warps", type=_COUNT, default=0,
                   help="simx: warps-per-core override (0 keeps the "
                        "default)")
    p.add_argument("--threads", type=_COUNT, default=0,
                   help="simx: threads-per-warp override (0 keeps the "
                        "default)")
    p.add_argument("--bucket", type=_POSITIVE, default=256,
                   help="simx: cycles per sampling bucket (default 256)")
    p.add_argument("--trace-out", default="",
                   help="Chrome-trace output path "
                        "(default profile_<bench>_<backend>.trace.json)")
    p.add_argument("--json-out", default="",
                   help="also write a machine-readable summary JSON")
    p.add_argument("--no-validate", action="store_true",
                   help="skip output validation against the numpy reference")
    p.set_defaults(func=_profile)

    p = sub.add_parser(
        "calibrate",
        parents=[engine_flags],
        help="fit the Vortex analytical model against SimX and write "
             "a fingerprinted calibration artifact (the input of `dse`)",
    )
    p.add_argument("--out", default="", metavar="PATH",
                   help="artifact path (default .repro-calibration.json)")
    p.add_argument("--benchmarks", default="", metavar="B,B,...",
                   help="comma-separated benchmarks "
                        "(default vecadd,transpose)")
    p.add_argument("--n", type=_POSITIVE, default=4096,
                   help="problem size of the SimX ground-truth cells "
                        "(default 4096)")
    p.set_defaults(func=_calibrate)

    p = sub.add_parser(
        "dse",
        parents=[sim_flags],
        help="hierarchical design-space exploration: screen the full "
             "grid with the analytical model in milliseconds, then "
             "SimX-confirm only the Pareto frontier",
    )
    p.add_argument("benchmark", help="sweep benchmark: vecadd or transpose")
    p.add_argument("--n", type=_POSITIVE, default=4096,
                   help="problem size (default 4096)")
    p.add_argument("--cores", type=_sizes, default=(), metavar="C,C,...",
                   help="core counts to screen (default 1,2,4,8)")
    p.add_argument("--warps", type=_sizes, default=(), metavar="W,W,...",
                   help="warp counts to screen (default 2,4,8,16)")
    p.add_argument("--threads", type=_sizes, default=(), metavar="T,T,...",
                   help="thread counts to screen (default 2,4,8,16)")
    p.add_argument("--confirm", choices=("frontier", "none"),
                   default="frontier",
                   help="SimX-confirm the Pareto frontier (default) or "
                        "stop at the analytical screen")
    p.add_argument("--frontier-cap", type=_POSITIVE, default=8,
                   help="max frontier points to SimX-confirm (default 8)")
    p.add_argument("--calibration", default="", metavar="PATH",
                   help="load a saved calibration artifact (its error "
                        "bounds drive frontier pruning)")
    p.add_argument("--calibrate", action="store_true",
                   help="fit a fresh calibration for this benchmark "
                        "first instead of loading one")
    p.add_argument("--json-out", default="", metavar="PATH",
                   help="also write the full DSE result payload as JSON")
    p.set_defaults(func=_dse)

    service_flags = argparse.ArgumentParser(add_help=False)
    service_flags.add_argument(
        "--state-dir", default="", metavar="PATH",
        help="service state directory: journal, result cache, daemon "
             "address (default $REPRO_SERVICE_DIR or ./.repro-service)")

    p = sub.add_parser(
        "serve",
        parents=[service_flags],
        help="run the experiment-service daemon: a crash-safe job "
             "queue over the engine (journalled, resumable, bounded)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=_PORT, default=0,
                   help="bind port (default 0 = ephemeral; clients "
                        "discover it via the state dir's daemon.json)")
    p.add_argument("--jobs", type=_COUNT, default=1, metavar="N",
                   help="engine worker processes (default 1 = inline; "
                        "0 = one per CPU)")
    p.add_argument("--resume", action="store_true",
                   help="replay the write-ahead journal and re-queue "
                        "every job without a durable result (use after "
                        "a crash or kill)")
    p.add_argument("--max-queue", type=_POSITIVE, default=256, metavar="N",
                   help="admission bound on queued jobs; beyond it "
                        "submissions get queue-full + retry_after "
                        "(default 256)")
    p.add_argument("--per-client", type=_POSITIVE, default=32, metavar="N",
                   help="in-flight job cap per client id (default 32)")
    p.add_argument("--batch-max", type=_POSITIVE, default=16, metavar="N",
                   help="jobs per engine campaign (default 16)")
    p.add_argument("--retries", type=_COUNT, default=1, metavar="N",
                   help="engine retries per failed point (default 1)")
    p.add_argument("--point-timeout", type=_SECONDS, default=None,
                   metavar="SECONDS",
                   help="per-point watchdog for service jobs")
    p.add_argument("--checkpoint-dir", default="", metavar="PATH",
                   help="snapshot running fig7-cell/dse simulations "
                        "under PATH: a stop/kill mid-simulation is resumed "
                        "mid-flight by serve --resume instead of "
                        "re-running from cycle 0")
    p.add_argument("--checkpoint-every", type=_POSITIVE, default=None,
                   metavar="CYCLES",
                   help="snapshot cadence in simulated cycles "
                        "(default 2000000)")
    p.set_defaults(func=_serve)

    client_flags = argparse.ArgumentParser(
        add_help=False, parents=[service_flags])
    client_flags.add_argument(
        "--service-retries", type=_COUNT, default=5, metavar="N",
        help="client-side retry budget for transient/backpressure "
             "errors, with jittered exponential backoff (default 5)")

    p = sub.add_parser(
        "submit",
        parents=[client_flags],
        help="submit job spec(s) to the daemon; identical work "
             "deduplicates against the shared result cache",
    )
    p.add_argument("job", nargs="+", metavar="JSON",
                   help='job spec, e.g. \'{"kind": "fig7-cell", '
                        '"benchmark": "vecadd", "warps": 4, '
                        '"threads": 4}\'')
    p.add_argument("--wait", action="store_true",
                   help="block until each job finishes and print its "
                        "result (exit 1 if any failed)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait deadline in seconds (default 600)")
    p.set_defaults(func=_submit)

    p = sub.add_parser("status", parents=[client_flags],
                       help="one job's state, or (with no job id) the "
                            "daemon's health/stats payload")
    p.add_argument("job_id", nargs="?", default="")
    p.set_defaults(func=_status)

    p = sub.add_parser("results", parents=[client_flags],
                       help="fetch finished job result(s) as JSON")
    p.add_argument("job_id", nargs="+")
    p.add_argument("--wait", action="store_true",
                   help="poll until each job finishes first")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait deadline in seconds (default 600)")
    p.set_defaults(func=_results)

    p = sub.add_parser("drain", parents=[client_flags],
                       help="ask the daemon to finish all queued jobs "
                            "and exit")
    p.add_argument("--wait", action="store_true",
                   help="block until the daemon is gone")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait deadline in seconds (default 600)")
    p.set_defaults(func=_drain)
    return parser


def _install_terminate_handler():
    """Route SIGTERM through KeyboardInterrupt so ``kill`` gets the
    same orderly unwind as Ctrl-C (``serve`` installs its own graceful
    handlers on top while the daemon runs). Returns the previous
    handler, or None when not on the main thread (tests import us)."""
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        return None


def main(argv: list[str] | None = None) -> int:
    from .errors import ExperimentAborted, ReproError, ServiceError

    args = _build_parser().parse_args(argv)
    previous_sigterm = _install_terminate_handler()
    try:
        if args.command == "all":
            status = 0
            for name, artifact in _ARTIFACTS.items():
                print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
                status = max(status, artifact(args))
            return status
        return args.func(args)
    except ReproError as exc:
        # the one error exit: a typed failure, never a traceback (an
        # aborted run also shows the failed point's own traceback).
        code = f" ({exc.code})" if isinstance(exc, ServiceError) else ""
        print(f"error{code}: {exc}", file=sys.stderr)
        if isinstance(exc, ExperimentAborted) and exc.failure.traceback:
            print(exc.failure.traceback, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # orderly interrupt: tear down any live worker pools (their
        # caches have already committed finished points, so a re-run
        # resumes), say so once on stderr, exit 130 with no traceback.
        from .harness import close_all_engines

        closed = close_all_engines()
        note = f" ({closed} worker pool(s) closed)" if closed else ""
        print(f"interrupted{note}", file=sys.stderr)
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":
    sys.exit(main())
