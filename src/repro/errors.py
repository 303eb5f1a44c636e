"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch a single base class at the harness boundary while tests assert on the
specific failure kind (e.g. the HLS flow raising :class:`SynthesisError`
with a machine-readable ``reason``).
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Malformed kernel IR (verifier failures, bad builder usage)."""


class TypeMismatchError(IRError):
    """An instruction was given operands of the wrong type."""


class RuntimeLaunchError(ReproError):
    """Invalid kernel launch (bad NDRange, missing arguments, ...)."""


class InterpreterError(ReproError):
    """The functional interpreter hit an invalid state (OOB access, ...)."""


class CompilationError(ReproError):
    """A backend compiler (HLS or Vortex) rejected the kernel."""


class SynthesisError(CompilationError):
    """HLS synthesis failure, mirroring the AOC failure modes in the paper.

    Attributes
    ----------
    reason:
        Machine-readable failure category. The paper's Table I uses two:
        ``"bram"`` (not enough BRAM) and ``"atomics"`` (atomic functions
        unsupported on a heterogeneous-memory device).
    detail:
        Free-form human-readable diagnostic.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"synthesis failed ({reason}): {detail}")


class ExplorationError(SynthesisError):
    """Design-space exploration found no feasible configuration.

    Raised by :meth:`repro.harness.dse.DSEResult.best` when the area
    model rejected every explored point, naming the device and the
    per-reason rejection counts so the caller can tell *why* the grid
    was infeasible (instead of a bare ``min() arg is an empty
    sequence``).
    """

    def __init__(self, device_name: str, rejected):
        reasons: dict[str, int] = {}
        for _, reason in rejected:
            reasons[reason] = reasons.get(reason, 0) + 1
        summary = ", ".join(
            f"{name}: {count}" for name, count in sorted(reasons.items())
        ) or "no points explored"
        self.device_name = device_name
        self.rejection_counts = reasons
        super().__init__(
            "no-feasible-config",
            f"all {len(rejected)} explored configurations were rejected "
            f"on {device_name} ({summary})",
        )


class SimulationError(ReproError):
    """The cycle-level simulator detected an illegal execution.

    Instances raised for a *stuck* machine (deadlock, cycle-limit
    overrun) carry a ``warp_dump`` attribute: the rendered per-warp
    state (core, warp id, PC, active mask, barrier/stall reason) at the
    moment the simulation gave up, so a hung configuration in a sweep is
    debuggable from the error row alone.
    """

    #: rendered per-warp machine state, set when the machine was stuck.
    warp_dump: str = ""


class TrapError(SimulationError):
    """A simulated Vortex core executed an illegal/unaligned operation."""


class CalibrationError(ReproError):
    """Model calibration could not produce or apply a usable fit.

    Raised when a benchmark has no calibration workload, when
    ground-truth collection failed so the fit would be based on
    incomplete samples, or when a DSE is handed another benchmark's
    fit.
    """


class CheckpointError(ReproError):
    """A simulation snapshot could not be taken or used.

    Raised when a launch asks for checkpointing in an unsupported mode
    (a live profiler), before it touches any snapshot, and when a
    snapshot fails its resume verification: another configuration, or
    another launch identity (the crc32 of the host's writes: program,
    NDRange descriptor, arguments and buffers). A failed verification
    leaves the machine untouched, so the launch discards that snapshot
    and runs from scratch.
    """


class SimulationPreempted(Exception):
    """Control-flow signal: the simulation wrote a snapshot and yielded
    instead of completing (checkpoint deadline reached, the daemon's
    stop file appeared, or a deterministic test hook fired).

    Deliberately *not* a :class:`ReproError`: harness layers that catch
    ``ReproError`` to mark a point as failed must never swallow a
    preemption — the engine catches it by name and requeues the point
    to resume from the snapshot, without charging a retry.

    Attributes
    ----------
    point_id:
        The launch id the snapshot was filed under.
    cycle:
        Simulated cycle the snapshot was taken at (monotonic progress
        across preemptions of the same point is enforced by the engine).
    """

    def __init__(self, point_id: str, cycle: int):
        self.point_id = point_id
        self.cycle = int(cycle)
        super().__init__(
            f"simulation preempted at cycle {cycle} "
            f"(snapshot {point_id!r} written)"
        )


@dataclass
class PointFailure:
    """Structured capture of one failed experiment point.

    The experiment engine turns a point that exhausted its retry budget
    into one of these instead of propagating (or losing) the exception:
    harness consumers render it as an ``ERROR(...)`` row/cell and the
    campaign keeps going. The payload is plain strings and ints so it is
    picklable across worker processes and byte-identical between serial
    and parallel runs of the same fault plan.
    """

    #: exception class name (``"SimulationError"``, ``"PointTimeout"``,
    #: ``"WorkerCrashed"``, ...).
    exc_type: str
    message: str
    traceback: str = ""
    #: total attempts made (1 = failed on the only attempt).
    attempts: int = 1

    def brief(self) -> str:
        """Compact ``ERROR(type: message)`` form for table cells."""
        return f"ERROR({self.exc_type}: {self.message})"

    def to_payload(self) -> dict:
        return {"exc_type": self.exc_type, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts}

    @classmethod
    def from_payload(cls, payload: dict) -> "PointFailure":
        return cls(exc_type=payload["exc_type"],
                   message=payload["message"],
                   traceback=payload.get("traceback", ""),
                   attempts=payload.get("attempts", 1))


class ServiceError(ReproError):
    """An experiment-service request failed.

    Every service failure carries a stable machine-readable ``code``
    (the wire-protocol ``code`` field), so clients and tests branch on
    codes, never on message strings. Subclasses pin well-known codes;
    the base class carries any other code verbatim (e.g.
    ``"bad-request"``, ``"shutting-down"``, ``"unavailable"``,
    ``"internal"``).

    Attributes
    ----------
    code:
        Stable machine-readable failure category.
    retry_after:
        Server-suggested seconds to wait before retrying (set on
        backpressure rejections), or ``None``.
    """

    code: str = "service-error"

    def __init__(self, message: str, *, code: str | None = None,
                 retry_after: float | None = None):
        if code is not None:
            self.code = code
        self.retry_after = retry_after
        super().__init__(message)


class QueueFull(ServiceError):
    """The daemon's admission queue (or a per-client in-flight limit)
    is at capacity; retry after ``retry_after`` seconds.

    ``code`` distinguishes the two bounds: ``"queue-full"`` (global
    queue depth) vs ``"client-limit"`` (this client's in-flight cap).
    """

    code = "queue-full"


class JobNotFound(ServiceError):
    """No job with the requested id is known to the daemon (never
    submitted, or evicted after completion — results live on in the
    result cache, keyed by content)."""

    code = "job-not-found"


class ExperimentAborted(ReproError):
    """A point failed under the engine's fail-fast policy.

    Raised instead of the (possibly remote, possibly unpicklable)
    original exception; carries the :class:`PointFailure` so callers can
    inspect the captured type/message/traceback. Points that completed
    before the abort were already committed to the result cache, so a
    re-run resumes from where the campaign died.
    """

    def __init__(self, label: str, failure: PointFailure):
        self.label = label
        self.failure = failure
        super().__init__(
            f"experiment {label!r} aborted: point failed after "
            f"{failure.attempts} attempt(s): {failure.exc_type}: "
            f"{failure.message}"
        )
