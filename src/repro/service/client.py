"""Client for the experiment-service daemon.

Finds the daemon through the state directory's ``daemon.json``
discovery file and speaks the JSON-lines protocol over localhost TCP,
one connection per request (connections are cheap on loopback, and a
connectionless client has no stuck-socket failure mode to manage).

The robustness posture mirrors the daemon's:

* **bounded retries with jittered exponential backoff** — transient
  failures (daemon restarting, connection refused) and backpressure
  rejections (``queue-full`` / ``client-limit``) are retried up to
  ``retries`` times, honouring the server's ``retry_after`` hint and
  jittering the delay so a thundering herd of rejected clients does not
  re-arrive in lockstep;
* **safe retries** — a retried submission whose first attempt
  actually landed coalesces onto the same job by content key, as any
  identical submission does, instead of enqueueing twice;
* **typed failures** — error replies surface as the exceptions their
  codes pin (:class:`~repro.errors.QueueFull`,
  :class:`~repro.errors.JobNotFound`, :class:`~repro.errors.ServiceError`
  with ``code`` set), never as string-matching exercises.
"""

from __future__ import annotations

import json
import os
import random
import socket
import time
import uuid
from pathlib import Path

from ..errors import ServiceError
from . import protocol

__all__ = ["ServiceClient", "resolve_state_dir"]


def resolve_state_dir(state_dir: str | Path | None = None) -> Path:
    """The service state directory: explicit arg, else
    ``$REPRO_SERVICE_DIR``, else ``./.repro-service``."""
    if state_dir:
        return Path(state_dir)
    return Path(os.environ.get(protocol.SERVICE_DIR_ENV, "")
                or protocol.DEFAULT_STATE_DIR)


class ServiceClient:
    """Talks to one daemon. Safe to share across threads (no mutable
    per-request state)."""

    #: codes worth retrying: the daemon said "later", not "never".
    RETRYABLE_CODES = ("unavailable", "queue-full", "client-limit")

    #: the longest pre-jitter retry backoff, in seconds.
    BACKOFF_CAP_S = 2.0

    #: :meth:`wait`'s first poll interval, in seconds.
    POLL_S = 0.05

    def __init__(self, state_dir: str | Path | None = None,
                 client_id: str | None = None, retries: int = 5,
                 backoff: float = 0.05, timeout: float = 60.0):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.state_dir = resolve_state_dir(state_dir)
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:12]}"
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _daemon_info(self) -> dict:
        path = self.state_dir / protocol.DAEMON_INFO_NAME
        try:
            info = json.loads(path.read_text())
            host, port = str(info["host"]), int(info["port"])
        except (OSError, ValueError, KeyError, TypeError):
            raise ServiceError(
                f"no experiment daemon found under {self.state_dir} "
                f"(start one with `python -m repro serve`)",
                code="unavailable")
        return {"host": host, "port": port}

    def _request_once(self, payload: dict) -> dict:
        info = self._daemon_info()
        try:
            with socket.create_connection(
                    (info["host"], info["port"]),
                    timeout=self.timeout) as sock:
                with sock.makefile("rwb") as stream:
                    protocol.write_message(stream, payload)
                    reply = protocol.read_message(stream)
        except OSError as exc:
            raise ServiceError(f"daemon unreachable: {exc}",
                               code="unavailable")
        if reply is None:
            raise ServiceError("daemon closed the connection",
                               code="unavailable")
        return reply

    def request(self, payload: dict) -> dict:
        """One request with bounded, jittered retries; returns the
        ``ok`` reply or raises the typed exception of the final
        error."""
        attempt = 0
        while True:
            attempt += 1
            try:
                reply = self._request_once(payload)
            except ServiceError as exc:
                if (exc.code in self.RETRYABLE_CODES
                        and attempt <= self.retries):
                    self._sleep(attempt, exc.retry_after)
                    continue
                raise
            if reply.get("ok"):
                return reply
            exc = protocol.exception_for_reply(reply)
            if (exc.code in self.RETRYABLE_CODES
                    and attempt <= self.retries):
                self._sleep(attempt, exc.retry_after)
                continue
            raise exc

    def _sleep(self, attempt: int, retry_after: float | None) -> None:
        delay = min(self.BACKOFF_CAP_S,
                    self.backoff * (2 ** (attempt - 1)))
        delay *= 0.5 + random.random()  # jitter: [0.5x, 1.5x)
        if retry_after:
            delay = max(delay, retry_after)
        time.sleep(delay)

    # -- operations --------------------------------------------------------

    def submit(self, job: dict) -> dict:
        """Submit one job; returns the ``{"job_id", "state",
        "coalesced"}`` reply."""
        return self.request({"op": "submit", "client": self.client_id,
                             "job": job})

    def status(self, job_id: str | None = None) -> dict:
        if job_id is None:
            return self.health()
        return self.request({"op": "status", "job_id": job_id})

    def results(self, job_id: str) -> dict:
        return self.request({"op": "results", "job_id": job_id})

    def health(self) -> dict:
        return self.request({"op": "health"})

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    # -- conveniences ------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Poll until ``job_id`` finishes; returns its ``results``
        reply (state ``done`` or ``failed``). The poll interval backs
        off geometrically to 0.5s so long waits stay cheap."""
        deadline = time.monotonic() + timeout
        delay = self.POLL_S
        while True:
            reply = self.results(job_id)
            if reply.get("state") in ("done", "failed"):
                return reply
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for "
                    f"{job_id} (last state {reply.get('state')!r})",
                    code="timeout")
            time.sleep(delay)
            delay = min(0.5, delay * 1.5)

    def wait_gone(self, timeout: float = 60.0) -> None:
        """Block until the daemon is unreachable (post-drain helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self._request_once({"op": "health"})
            except ServiceError:
                return
            time.sleep(0.1)
        raise ServiceError("daemon still reachable after drain",
                           code="timeout")
