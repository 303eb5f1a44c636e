"""Deterministic, seed-addressable fault injection for the engine.

The fault-tolerance claims of the experiment engine (retries recover
transient faults, a killed worker respawns the pool, a hung point is
cancelled by the watchdog, an interrupted sweep resumes from the cache)
are only claims until something actually injects those faults. This
module is the injector: a *fault plan* is parsed from the
``REPRO_FAULT_PLAN`` environment variable — which spawned worker
processes inherit, so the same plan reaches every execution mode — and
:func:`maybe_fault` is called by the engine at the top of every point
attempt with a stable *site* name (``"<label>#<index>"``).

A plan is a semicolon-separated list of specs::

    kind:match[:times[:arg]]

* ``kind`` — ``raise`` (raise :class:`FaultInjected`), ``sleep``
  (sleep ``arg`` seconds, then run the point — drives the watchdog
  timeout), or ``kill`` (``os._exit`` the worker process — drives
  ``BrokenProcessPool`` recovery; raises instead when running inline).
* ``match`` — substring matched against the site name, e.g.
  ``"fig7 vecadd#2"`` addresses exactly one grid cell.
* ``times`` — fire at most this many times (default 1). Firings are
  counted in the ``REPRO_FAULT_STATE`` directory via atomic
  ``O_CREAT|O_EXCL`` file creation, so the budget is shared across
  *all* worker processes and a ``times=1`` fault fires exactly once no
  matter how the points are scheduled — which is what makes serial and
  parallel runs of the same plan produce identical results.
* ``arg`` — sleep duration for ``sleep``, extra message for ``raise``.

Without ``REPRO_FAULT_STATE`` the firing counters are per-process
(fine for serial runs and unit tests; parallel runs should set it).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..durable import claim
from ..errors import ReproError

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_STATE_ENV",
    "FaultInjected",
    "FaultSpec",
    "corrupt_cache_entry",
    "corrupt_checkpoint",
    "maybe_fault",
    "parse_plan",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
FAULT_STATE_ENV = "REPRO_FAULT_STATE"

KINDS = ("raise", "sleep", "kill")

#: exit code of a ``kill`` fault, distinguishable from a real crash.
KILL_EXIT_CODE = 86


class FaultInjected(ReproError):
    """Raised by an injected ``raise`` (or inline ``kill``) fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind:match[:times[:arg]]`` fault."""

    kind: str
    match: str
    times: int = 1
    arg: str = ""


def parse_plan(text: str) -> list[FaultSpec]:
    """Parse a ``REPRO_FAULT_PLAN`` value into :class:`FaultSpec` s."""
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(":", 3)
        if len(parts) < 2:
            raise ValueError(
                f"bad fault spec {chunk!r} (want kind:match[:times[:arg]])"
            )
        kind = parts[0].strip()
        if kind not in KINDS:
            raise ValueError(
                f"bad fault kind {kind!r} (choose from {KINDS})")
        times = 1
        if len(parts) > 2 and parts[2].strip():
            times = int(parts[2])
        arg = parts[3] if len(parts) > 3 else ""
        specs.append(FaultSpec(kind=kind, match=parts[1], times=times,
                               arg=arg))
    return specs


_plan_cache: tuple[str, list[FaultSpec]] | None = None
_local_counts: dict[int, int] = {}


def _active_plan(text: str) -> list[FaultSpec]:
    global _plan_cache
    if _plan_cache is None or _plan_cache[0] != text:
        _plan_cache = (text, parse_plan(text))
    return _plan_cache[1]


def _claim_firing(state_dir: str, index: int, times: int) -> bool:
    """Atomically claim one of the spec's ``times`` firings.

    With a state directory the claim is a :func:`repro.durable.claim`
    file creation — atomic across processes, so concurrent workers can
    never over-fire a budgeted fault. Without one, a per-process counter.
    """
    if not state_dir:
        count = _local_counts.get(index, 0)
        if count >= times:
            return False
        _local_counts[index] = count + 1
        return True
    os.makedirs(state_dir, exist_ok=True)
    return any(claim(os.path.join(state_dir, f"fault{index}.{k}"))
               for k in range(times))


def maybe_fault(site: str) -> None:
    """Fire any planned fault whose ``match`` occurs in ``site``.

    Called by the engine's point wrapper at the top of every attempt,
    in the worker process (parallel) or inline (serial); a no-op unless
    ``REPRO_FAULT_PLAN`` is set.
    """
    text = os.environ.get(FAULT_PLAN_ENV, "")
    if not text:
        return
    state_dir = os.environ.get(FAULT_STATE_ENV, "")
    for index, spec in enumerate(_active_plan(text)):
        if spec.match not in site:
            continue
        if not _claim_firing(state_dir, index, spec.times):
            continue
        _fire(spec, site)


def _fire(spec: FaultSpec, site: str) -> None:
    if spec.kind == "sleep":
        time.sleep(float(spec.arg or 0.2))
        return
    if spec.kind == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(KILL_EXIT_CODE)
        raise FaultInjected(
            f"injected worker kill at {site} "
            f"(inline mode raises instead of exiting)"
        )
    detail = f": {spec.arg}" if spec.arg else ""
    raise FaultInjected(f"injected fault at {site}{detail}")


def corrupt_cache_entry(cache, key: str) -> None:
    """Overwrite a result-cache entry with bytes that cannot parse.

    Models on-disk corruption (torn write, bit rot) of a memoised
    point; :meth:`~repro.harness.result_cache.ResultCache.get` must
    treat the entry as a miss and the engine must re-execute and heal
    it.
    """
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{corrupt-cache-entry")


def corrupt_checkpoint(store, point_id: str) -> None:
    """Garble a simulation snapshot's payload in place.

    The header (magic, version, fingerprint, payload digest) is kept
    intact so the corruption is only detectable by the payload
    checksum — exactly the torn-write case
    :meth:`~repro.vortex.simx.checkpoint.CheckpointStore.load` must
    catch, drop, and count, degrading the resume to a clean re-run.
    """
    path = store.path(point_id)
    with open(path, "rb") as fh:
        blob = fh.read()
    header_end = blob.index(b"\n") + 1
    body = bytearray(blob[header_end:])
    if not body:
        body = bytearray(b"\x00")
    body[len(body) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob[:header_end])
        fh.write(bytes(body))
