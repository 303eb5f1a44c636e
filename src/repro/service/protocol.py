"""Wire protocol of the experiment service: JSON lines over localhost TCP.

One request per line, one reply per line, UTF-8 JSON objects, newline
terminated; a connection may issue any number of requests before
closing. The framing is deliberately boring — every robustness property
lives in the *handling*:

* a request line longer than :data:`MAX_LINE_BYTES` is rejected with a
  typed error before it is buffered whole, so a hostile or broken
  client cannot balloon daemon memory;
* a line that is not valid JSON, not an object, or not a known ``op``
  yields an ``{"ok": false, "code": "bad-request", ...}`` reply — the
  daemon never crashes (or even logs a traceback) on malformed input;
* every error reply carries a stable machine-readable ``code`` (and,
  for backpressure rejections, a ``retry_after`` hint in seconds), so
  clients and tests branch on codes, never message strings.

Requests::

    {"op": "submit", "client": "...", "job": {...}}
                                      -> {"ok": true, "job_id": ...,
                                          "state": ..., "coalesced": ...}
    {"op": "status", "job_id": "..."} -> {"ok": true, "state": ...}
    {"op": "results", "job_id": ...}  -> {"ok": true, "state": "done",
                                          "value": ...} (or "failed"
                                          with a PointFailure payload)
    {"op": "health"}                  -> queue/worker/cache statistics
    {"op": "drain"}                   -> finish queued jobs, then exit

A request field its op does not read is ignored. An identical
``submit`` (a client's retry included) coalesces onto the first one's
job by content key, so a retry never enqueues twice; once that job has
failed or been evicted, an identical ``submit`` starts a fresh run.

Error replies::

    {"ok": false, "code": "<stable-code>", "error": "<human text>",
     "retry_after": <seconds, only on backpressure codes>}
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

from ..errors import JobNotFound, QueueFull, ServiceError

__all__ = [
    "CODES",
    "DAEMON_INFO_NAME",
    "DEFAULT_STATE_DIR",
    "MAX_LINE_BYTES",
    "OPS",
    "SERVICE_DIR_ENV",
    "ProtocolError",
    "error_reply",
    "exception_for_reply",
    "ok_reply",
    "read_message",
    "write_message",
]

#: hard cap on one request/reply line (framing-level memory bound).
MAX_LINE_BYTES = 1 << 20

#: environment variable naming the service state directory (journal,
#: result cache, daemon address file) — the CLI's ``--state-dir``
#: default, shared by daemon and clients.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"
DEFAULT_STATE_DIR = ".repro-service"

#: discovery file the daemon writes (atomically) into the state
#: directory after binding: ``{"pid", "host", "port", "started_unix"}``.
DAEMON_INFO_NAME = "daemon.json"

#: every operation the daemon understands.
OPS = ("submit", "status", "results", "health", "drain")

#: the stable error codes of the protocol — additions are fine,
#: renames are a breaking change.
CODES = (
    "bad-request",      # malformed line / unknown op / invalid job spec
    "queue-full",       # global admission queue at capacity
    "client-limit",     # this client's in-flight cap reached
    "job-not-found",    # unknown or evicted job id
    "shutting-down",    # daemon is draining; no new admissions
    "unavailable",      # client-side: daemon unreachable
    "internal",         # unexpected daemon-side failure (bug)
)


class ProtocolError(ServiceError):
    """A connection-level framing violation (oversized or torn line).

    Raised by :func:`read_message`; the daemon replies with the error
    and closes that connection, the client surfaces it.
    """

    code = "bad-request"


def read_message(stream: BinaryIO) -> dict | None:
    """Read one JSON-object line; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` for an oversized line, a torn line
    (EOF before the newline), non-JSON bytes, or a non-object payload.
    """
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-line")
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        raise ProtocolError("request is not valid JSON")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def write_message(stream: BinaryIO, message: dict) -> None:
    """Write one JSON-object line and flush it."""
    stream.write(json.dumps(message, separators=(",", ":")).encode()
                 + b"\n")
    stream.flush()


def ok_reply(**fields: Any) -> dict:
    reply = {"ok": True}
    reply.update(fields)
    return reply


def error_reply(code: str, message: str,
                retry_after: float | None = None) -> dict:
    reply = {"ok": False, "code": code, "error": message}
    if retry_after is not None:
        reply["retry_after"] = round(float(retry_after), 3)
    return reply


def exception_for_reply(reply: dict) -> ServiceError:
    """Map an error reply to the typed exception its code pins.

    ``queue-full``/``client-limit`` become :class:`QueueFull`,
    ``job-not-found`` becomes :class:`JobNotFound`, everything else a
    plain :class:`ServiceError` carrying the code verbatim — so tests
    assert ``exc.code``, never message strings.
    """
    code = str(reply.get("code", "internal"))
    message = str(reply.get("error", "unknown service error"))
    retry_after = reply.get("retry_after")
    if retry_after is not None:
        retry_after = float(retry_after)
    if code in ("queue-full", "client-limit"):
        return QueueFull(message, code=code, retry_after=retry_after)
    if code == "job-not-found":
        return JobNotFound(message, retry_after=retry_after)
    return ServiceError(message, code=code, retry_after=retry_after)
