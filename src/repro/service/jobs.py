"""Job kinds the experiment service executes, and their validation.

A *job* is one experiment point expressed as a plain JSON object, so it
can cross the wire, live in the write-ahead journal, and be handed to
the engine's worker pool. Validation is strict and typed: unknown
kinds, unknown fields, wrong types, and out-of-range values are all
rejected at admission with a ``bad-request`` reply — a malformed spec
must never reach (let alone crash) a worker.

Kinds
-----

``fig7-cell``
    One cell of the paper's Figure 7 warp/thread sweep: ``benchmark``
    (any that declares a sweep, :func:`repro.harness.sweep.fig7_sweep`),
    ``warps``, ``threads``, plus optional ``cores`` and ``n``. A
    configuration the memory map cannot launch
    (:func:`repro.vortex.layout.launch_rejection`) is refused at
    admission. The content key is the sweep's own
    (:func:`repro.harness.sweep.fig7_key`), so service results,
    batch-CLI results, and resumed campaigns all deduplicate against
    the same :class:`~repro.harness.result_cache.ResultCache` entries.
    It names the launch ``n`` builds, so requests whose ``n`` builds the
    same launch coalesce (transpose runs a 16x16 matrix for every ``n``
    from 16 to 992).

``dse``
    One hierarchical design-space exploration (see
    :func:`repro.harness.dse.run_dse`): screen a ``cores`` x ``warps``
    x ``threads`` grid with the analytical model, then confirm the
    Pareto frontier on SimX (``confirm: "frontier"``, capped at
    ``frontier_cap`` points) or stop at the screen (``"none"``).
    ``calibrated`` fits the model against SimX first
    (:func:`repro.calibrate.run_calibration`, the fit ``python -m repro
    calibrate`` reports), so the job's frontier pruning uses a measured
    error bound. Its SimX cells share the daemon's cache with
    ``fig7-cell`` jobs. The result payload is
    :meth:`~repro.harness.dse.DSEResult.to_payload`; its ``bound`` is
    the bound the job pruned with.

``probe``
    A synthetic point for smoke/chaos testing the service itself:
    echoes ``value`` after an optional ``sleep_s``, or raises when
    ``boom`` is set. ``nonce`` forces distinct content keys for
    otherwise identical probes.

:func:`execute_job` is the single module-level (spawn-picklable)
dispatch the engine fans across workers, so the daemon batches *mixed*
kinds into one worker-pool campaign.
"""

from __future__ import annotations

import numbers
import time
from typing import Any

from ..errors import CalibrationError, ServiceError
from ..harness.defaults import (CONFIRM_MODES, CORE_COUNTS, FIG7_N,
                                FRONTIER_CAP, THREAD_SIZES, WARP_SIZES)
from ..harness.engine import ExperimentEngine
from ..harness.sweep import fig7_key, fig7_problem, fig7_sweep, sweep_point
from ..vortex import VortexConfig
from ..vortex.layout import launch_rejection

__all__ = ["JOB_KINDS", "execute_job", "job_key", "validate_job"]

#: admission bounds for fig7-cell geometry/problem size — generous
#: enough for any sweep the harness can run, tight enough that a typo
#: (warps=80000) cannot wedge a worker for hours.
MAX_GEOMETRY = 64
MIN_N, MAX_N = 16, 1 << 20

#: longest sleep a probe may request (probes exist to *test* the
#: service; an unbounded sleep would be a self-inflicted hang).
MAX_PROBE_SLEEP_S = 600.0

#: admission bounds for dse jobs: SimX caps threads at 32 per warp (a
#: fig7-cell's too), a grid bigger than this screens in well under a
#: second but signals a typo, and the confirmation budget bounds the
#: expensive part.
MAX_DSE_THREADS = 32
MAX_DSE_POINTS = 4096
MAX_DSE_CONFIRM = 64

JOB_KINDS = ("fig7-cell", "dse", "probe")


def _bad(message: str) -> ServiceError:
    return ServiceError(message, code="bad-request")


def _require_int(spec: dict, field: str, lo: int, hi: int,
                 default: int | None = None) -> int:
    value = spec.get(field, default)
    if value is None:
        raise _bad(f"job field {field!r} is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"job field {field!r} must be an integer, "
                   f"got {type(value).__name__}")
    if not lo <= value <= hi:
        raise _bad(f"job field {field!r} must be in [{lo}, {hi}], "
                   f"got {value}")
    return value


def _require_int_list(spec: dict, field: str, lo: int, hi: int,
                      default: tuple[int, ...]) -> list[int]:
    """A non-empty list of bounded integers, canonicalised to sorted
    unique values (so logically-equal grids share one content key)."""
    value = spec.get(field, default)
    if not isinstance(value, (list, tuple)) or not value:
        raise _bad(f"job field {field!r} must be a non-empty list "
                   f"of integers")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise _bad(f"job field {field!r} entries must be integers, "
                       f"got {item!r}")
        if not lo <= item <= hi:
            raise _bad(f"job field {field!r} entries must be in "
                       f"[{lo}, {hi}], got {item}")
    return sorted(set(value))


def _require_sweep(spec: dict) -> str:
    """The spec's ``benchmark``, if it declares a sweep cell."""
    try:
        fig7_sweep(spec.get("benchmark"))
    except CalibrationError as exc:
        raise _bad(str(exc)) from None
    return spec["benchmark"]


def _check_fields(spec: dict, allowed: set[str]) -> None:
    unknown = set(spec) - allowed - {"kind"}
    if unknown:
        raise _bad(f"unknown job field(s): {sorted(unknown)} "
                   f"(allowed: {sorted(allowed)})")


def validate_job(spec: Any) -> dict:
    """Validate and normalise one job spec (fill defaults, fix field
    order), raising ``bad-request`` :class:`ServiceError` on any
    malformed input. The returned dict is the canonical spec used for
    keying, journalling, and execution."""
    if not isinstance(spec, dict):
        raise _bad("job must be a JSON object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise _bad(f"unknown job kind {kind!r} "
                   f"(choose from {list(JOB_KINDS)})")
    if kind == "fig7-cell":
        _check_fields(spec, {"benchmark", "warps", "threads", "cores",
                             "n"})
        job = {
            "kind": "fig7-cell",
            "benchmark": _require_sweep(spec),
            "warps": _require_int(spec, "warps", 1, MAX_GEOMETRY),
            "threads": _require_int(spec, "threads", 1, MAX_DSE_THREADS),
            "cores": _require_int(spec, "cores", 1, MAX_GEOMETRY, 4),
            "n": _require_int(spec, "n", MIN_N, MAX_N, FIG7_N),
        }
        config = _cell_config(job)
        reason = launch_rejection(config)
        if reason is not None:
            raise _bad(f"fig7-cell {config.label()} cannot launch on the "
                       f"simulated memory map ({reason})")
        return job
    if kind == "dse":
        _check_fields(spec, {"benchmark", "n", "cores", "warps",
                             "threads", "confirm", "frontier_cap",
                             "calibrated"})
        benchmark = _require_sweep(spec)
        cores = _require_int_list(spec, "cores", 1, MAX_GEOMETRY,
                                  CORE_COUNTS)
        warps = _require_int_list(spec, "warps", 1, MAX_GEOMETRY,
                                  WARP_SIZES)
        threads = _require_int_list(spec, "threads", 1, MAX_DSE_THREADS,
                                    THREAD_SIZES)
        points = len(cores) * len(warps) * len(threads)
        if points > MAX_DSE_POINTS:
            raise _bad(f"dse grid has {points} points "
                       f"(cap: {MAX_DSE_POINTS})")
        confirm = spec.get("confirm", "frontier")
        if confirm not in CONFIRM_MODES:
            raise _bad(f"dse confirm must be one of "
                       f"{list(CONFIRM_MODES)}, got {confirm!r}")
        calibrated = spec.get("calibrated", True)
        if not isinstance(calibrated, bool):
            raise _bad("dse calibrated must be a boolean")
        return {
            "kind": "dse",
            "benchmark": benchmark,
            "n": _require_int(spec, "n", MIN_N, MAX_N, FIG7_N),
            "cores": cores,
            "warps": warps,
            "threads": threads,
            "confirm": confirm,
            "frontier_cap": _require_int(spec, "frontier_cap", 1,
                                         MAX_DSE_CONFIRM, FRONTIER_CAP),
            "calibrated": calibrated,
        }
    # probe
    _check_fields(spec, {"value", "sleep_s", "boom", "nonce"})
    value = spec.get("value", 0)
    if not (value is None or isinstance(value, (str, bool))
            or isinstance(value, numbers.Real)):
        raise _bad("probe value must be a JSON scalar")
    sleep_s = spec.get("sleep_s", 0.0)
    if isinstance(sleep_s, bool) or not isinstance(
            sleep_s, numbers.Real):
        raise _bad("probe sleep_s must be a number")
    sleep_s = float(sleep_s)
    if not 0.0 <= sleep_s <= MAX_PROBE_SLEEP_S:
        raise _bad(f"probe sleep_s must be in "
                   f"[0, {MAX_PROBE_SLEEP_S:g}], got {sleep_s!r}")
    boom = spec.get("boom", False)
    if not isinstance(boom, bool):
        raise _bad("probe boom must be a boolean")
    nonce = spec.get("nonce", "")
    if not isinstance(nonce, str):
        raise _bad("probe nonce must be a string")
    return {"kind": "probe", "value": value, "sleep_s": sleep_s,
            "boom": boom, "nonce": nonce}


def job_key(cache, spec: dict) -> str:
    """The content-addressed cache key of a validated job spec.

    ``fig7-cell`` jobs take the sweep's cell key
    (:func:`~repro.harness.sweep.fig7_key`), which is what lets the
    service dedupe against sweeps, DSE confirmations and calibrations
    run by the batch CLI — and vice versa. Other kinds (``dse``,
    ``probe``) key on their canonical spec directly:
    :func:`validate_job` already normalised field order, defaults, and
    grid lists, so equal requests collide.
    """
    if spec["kind"] == "fig7-cell":
        benchmark = spec["benchmark"]
        return fig7_key(cache, benchmark, _cell_config(spec),
                        fig7_problem(benchmark, spec["n"]))
    return cache.key(**spec)


def _cell_config(spec: dict):
    """The :class:`~repro.vortex.VortexConfig` of a ``fig7-cell`` spec."""
    return VortexConfig().with_geometry(
        cores=spec["cores"], warps=spec["warps"], threads=spec["threads"])


def execute_job(spec: dict, checkpoint: dict | None = None,
                cache=None) -> dict:
    """Run one validated job spec — the engine's unit of work.

    Module-level and called with plain-dict arguments, so it is
    picklable into spawned workers and a batch may mix job kinds.
    Returns a JSON-serialisable result (the engine memoises it in the
    result cache).

    ``checkpoint`` (a snapshot spec, see
    :func:`~repro.vortex.simx.checkpoint.checkpoint_spec`) and
    ``cache`` (the daemon's result cache, which a ``dse`` job runs its
    SimX cells on) are scheduling inputs the daemon attaches per job.
    Neither changes the result, so neither is part of the job spec or
    its content key.
    """
    kind = spec["kind"]
    if kind == "probe":
        if spec["sleep_s"]:
            time.sleep(spec["sleep_s"])
        if spec["boom"]:
            raise RuntimeError("probe boom requested")
        return {"value": spec["value"]}
    if kind == "fig7-cell":
        return sweep_point(spec["benchmark"], _cell_config(spec),
                           spec["n"], checkpoint=checkpoint)
    if kind == "dse":
        # loaded by the first dse job: a daemon serving only fig7 cells
        # never imports the calibration or the DSE
        from ..calibrate import run_calibration
        from ..harness.dse import run_dse

        engine = ExperimentEngine(cache=cache)  # serial: one daemon point
        calibration = None
        if spec["calibrated"]:
            calibration = run_calibration(spec["benchmark"], spec["n"],
                                          engine=engine)
        result = run_dse(
            spec["benchmark"], n=spec["n"],
            core_counts=tuple(spec["cores"]),
            warp_sizes=tuple(spec["warps"]),
            thread_sizes=tuple(spec["threads"]),
            calibration=calibration,
            confirm=spec["confirm"],
            frontier_cap=spec["frontier_cap"],
            engine=engine, checkpoint=checkpoint,
        )
        return result.to_payload()
    raise ServiceError(f"unexecutable job kind {kind!r}",
                       code="internal")
