"""The experiment-service daemon: a crash-safe job queue over the engine.

``python -m repro serve`` turns the PR 2/PR 4 parallel, fault-tolerant
batch engine into an always-on service. Robustness is the design
headline; every mechanism below exists to survive a specific failure:

**Malformed input** — every request is validated at the protocol layer
(framing, JSON, op) and at admission (typed job specs); violations get
stable-coded error replies and the daemon keeps serving.

**Client floods** — admission control bounds all daemon memory: a
bounded queue (``queue-full`` rejections with a ``retry_after`` hint),
a per-client in-flight cap (``client-limit``), a framing-level line
cap, and an LRU bound on retained finished jobs. Identical requests
(by content key) coalesce onto one execution, and idempotency keys
make client-side retries safe, so a retry storm cannot multiply work.

**Worker crashes and hangs** — jobs run through
:class:`~repro.harness.engine.ExperimentEngine` with ``keep_going``
retries/watchdog/quarantine, so a killed or wedged worker costs at most
one job its retry budget, never the daemon. ``REPRO_FAULT_PLAN``
injection reaches service workers through the same environment
inheritance as batch runs (sites ``service#<index>``).

**Daemon death** — a write-ahead journal (append + ``fsync`` *before*
the client's ``ok``) plus the durable result cache make ``kill -9``
recoverable: ``serve --resume`` replays the journal, re-queues every
job without a ``done`` record, and the content-addressed cache
short-circuits any point whose result already committed — only
genuinely unfinished points re-execute.

**Operator shutdown** — SIGINT/SIGTERM stop admissions, let the
in-flight batch checkpoint through the engine's incremental commits,
flush the journal, and exit; a second signal hard-exits immediately
(safe: the journal is durable at every instant). A client ``drain``
finishes all queued work first.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..durable import atomic_write, sweep_tmp
from ..errors import PointFailure, ServiceError
from ..harness.engine import ExperimentEngine
from ..harness.result_cache import MISS, ResultCache
from ..profiling import Profiler
from . import protocol
from .jobs import execute_job, job_key, validate_job
from .journal import Journal

__all__ = ["ExperimentDaemon"]

QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

_JOB_ID_RE = re.compile(r"^j(\d+)-[0-9a-f]+$")


@dataclass
class _Job:
    """One admitted job: the daemon-side record of a queued point."""

    id: str
    spec: dict
    key: str
    seq: int
    state: str = QUEUED
    #: every client coalesced onto this execution.
    clients: set[str] = field(default_factory=set)
    idem: str | None = None
    result: Any = None
    failure: dict | None = None


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: set by the daemon after construction.
    experiment_daemon: "ExperimentDaemon"


class _Handler(socketserver.StreamRequestHandler):
    #: per-connection socket timeout: a stalled client cannot pin its
    #: handler thread forever.
    timeout = 120

    def handle(self) -> None:  # pragma: no cover - exercised via TCP
        daemon = self.server.experiment_daemon
        while True:
            try:
                message = protocol.read_message(self.rfile)
            except protocol.ProtocolError as exc:
                self._reply(protocol.error_reply(exc.code, str(exc)))
                return
            except OSError:
                return
            if message is None:
                return
            if not self._reply(daemon.handle_request(message)):
                return

    def _reply(self, reply: dict) -> bool:
        try:
            protocol.write_message(self.wfile, reply)
            return True
        except (OSError, ValueError):
            return False


class ExperimentDaemon:
    """Crash-safe job-queue daemon over the experiment engine.

    Parameters
    ----------
    state_dir:
        Directory holding the write-ahead journal, the durable result
        cache, and the ``daemon.json`` discovery file.
    jobs:
        Engine worker processes (``1`` = inline, ``0`` = per CPU).
    max_queue:
        Admission bound on *queued* (not yet running) jobs; beyond it
        submissions are rejected with ``queue-full`` + ``retry_after``.
    per_client:
        In-flight (queued + running) job cap per client id; beyond it
        submissions are rejected with ``client-limit``.
    batch_max:
        Jobs per engine campaign — the scheduler drains up to this many
        queued jobs into one ``engine.run`` call; results still stream
        back per job via the engine's ``on_result`` hook.
    max_done:
        Finished jobs retained in memory for ``status``/``results``
        (oldest evicted first; their values remain reachable through
        the content-addressed cache by resubmitting the same spec).
    resume:
        Replay the journal on startup, re-queueing unfinished jobs.
    retries / point_timeout:
        Engine fault-tolerance policy for service campaigns.
    checkpoint_dir / checkpoint_every:
        When ``checkpoint_dir`` is set, every ``fig7-cell`` (and every
        ``dse`` confirmation) simulation
        snapshots its machine state there on a ``checkpoint_every``
        cycle cadence (default
        :data:`~repro.vortex.simx.checkpoint.DEFAULT_EVERY_CYCLES`) and
        yields cooperatively before the engine watchdog would kill it.
        A stop request drops a ``STOP`` file in the directory so
        running simulations checkpoint out at the next poll; a later
        ``serve --resume`` re-queues them and they resume mid-flight
        from their snapshots.
    """

    def __init__(self, state_dir: str | Path, jobs: int = 1,
                 host: str = "127.0.0.1", port: int = 0,
                 max_queue: int = 256, per_client: int = 32,
                 batch_max: int = 16, max_done: int = 4096,
                 resume: bool = False, retries: int = 1,
                 point_timeout: float | None = None,
                 compact_every: int = 4096,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every: int | None = None):
        if max_queue < 1 or per_client < 1 or batch_max < 1:
            raise ValueError("max_queue, per_client and batch_max must "
                             "be >= 1")
        if max_done < 1:
            raise ValueError("max_done must be >= 1")
        self.state_dir = Path(state_dir)
        self.host, self.port = host, port
        self.max_queue = max_queue
        self.per_client = per_client
        self.batch_max = batch_max
        self.max_done = max_done
        self.resume = resume
        self.compact_every = compact_every
        self.point_timeout = point_timeout
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.checkpoint_every = checkpoint_every
        #: store handle for health reporting; built in :meth:`start`.
        self._ckpt_store = None

        self.profiler = Profiler()
        self.cache = ResultCache(self.state_dir / "cache", durable=True)
        self.journal = Journal(self.state_dir / "journal.jsonl")
        self.engine = ExperimentEngine(
            jobs=jobs, cache=self.cache, keep_going=True,
            retries=retries, point_timeout=point_timeout,
            profiler=self.profiler)

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[_Job] = deque()
        self._by_key: dict[str, str] = {}
        self._idem: dict[str, str] = {}
        self._inflight: dict[str, int] = {}
        self._done_order: deque[str] = deque()
        self._seq = 0
        self._running = 0
        self._accepted_total = 0
        self._done_total = 0
        self._failed_total = 0
        self._draining = False
        self._stop_now = False
        self._stopped = threading.Event()
        self._started = False
        self._started_at = 0.0
        self._signalled: int | None = None
        self._server: _Server | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise ServiceError("daemon not started", code="unavailable")
        return self._server.server_address[:2]

    def start(self) -> None:
        """Bind, recover state, write ``daemon.json``, start threads."""
        if self._started:
            raise ServiceError("daemon already started",
                               code="already-running")
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._refuse_second_daemon()
        # startup is the one moment no writer of ours can be live, so a
        # full zero-age sweep of crashed writers' temp files is safe:
        # journal compactions and daemon.json here, entries in the cache.
        sweep_tmp(self.state_dir, "*", 0.0)
        self.cache.vacuum(0.0)
        if self.checkpoint_dir is not None:
            from ..vortex.simx.checkpoint import CheckpointStore

            # Same reasoning as the cache vacuum: no snapshot writer is
            # live yet, so sweep *all* orphaned snapshot temp files a
            # kill -9 may have stranded mid-write.
            self._ckpt_store = CheckpointStore(self.checkpoint_dir,
                                               sweep_age_s=0.0)
            try:
                # a STOP file is a one-shot shutdown signal; a leftover
                # from the previous daemon's death must not preempt the
                # resumed run immediately.
                self._stop_file_path().unlink()
            except OSError:
                pass
        if self.resume:
            self._recover()
        else:
            # an explicit fresh start supersedes any leftover journal.
            self.journal.compact([])
        self._server = _Server((self.host, self.port), _Handler)
        self._server.experiment_daemon = self
        self._write_daemon_info()
        self._started = True
        self._started_at = time.monotonic()
        server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-server", daemon=True)
        scheduler_thread = threading.Thread(
            target=self._scheduler_loop,
            name="repro-service-scheduler", daemon=True)
        self._threads = [server_thread, scheduler_thread]
        for thread in self._threads:
            thread.start()

    def serve(self) -> int:
        """CLI entry: start, install signal handlers, block until the
        daemon stops. Returns the process exit code (130 when stopped
        by a signal — the interrupted-by-operator convention every
        ``python -m repro`` subcommand follows — else 0)."""
        if not self._started:
            self.start()

        def _on_signal(signum, frame):
            if self._signalled is not None:
                # second signal: the operator means NOW. Safe, because
                # the journal and cache are durably consistent at every
                # instant — the next --resume picks up where we died.
                os._exit(130)
            self._signalled = signum
            self.request_stop()

        previous = {s: signal.signal(s, _on_signal)
                    for s in (signal.SIGINT, signal.SIGTERM)}
        try:
            while not self.wait(0.2):
                pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 130 if self._signalled is not None else 0

    def request_stop(self) -> None:
        """Graceful shutdown: stop admitting, finish the in-flight
        batch (its points checkpoint incrementally), flush, exit.
        Queued-but-unrun jobs stay journalled for ``--resume``.

        With checkpointing enabled the in-flight batch does not have to
        *finish*: dropping the ``STOP`` file makes running simulations
        snapshot and yield at their next poll, the engine finalises the
        preemptions (requeueing is switched off), and the yielded jobs
        go back to the queue — journalled accepted-without-done, so
        ``serve --resume`` resumes them mid-flight."""
        if self.checkpoint_dir is not None:
            self.engine.stop_preempting()
            try:
                self._stop_file_path().touch()
            except OSError:
                pass
        with self._cond:
            self._stop_now = True
            self._cond.notify_all()

    def request_drain(self) -> None:
        """Stop admitting, run every queued job to completion, exit."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        return self._stopped.wait(timeout)

    # -- startup helpers ---------------------------------------------------

    def _info_path(self) -> Path:
        return self.state_dir / protocol.DAEMON_INFO_NAME

    def _stop_file_path(self) -> Path:
        return self.checkpoint_dir / "STOP"

    def _job_checkpoint(self, job: _Job) -> dict | None:
        """The per-job checkpoint spec shipped to the worker (see
        :meth:`CheckpointPlan.from_spec`), or ``None``.

        The point id is derived from the job's *content key*, so a
        coalesced resubmission — or the same job re-queued by
        ``--resume`` after a crash — finds the snapshot of its earlier
        incarnation. The deadline is 80% of the engine watchdog budget:
        the simulation yields a snapshot before the watchdog would have
        killed it without one.
        """
        if (self.checkpoint_dir is None
                or job.spec.get("kind") not in ("fig7-cell", "dse")):
            return None
        deadline_s = (self.point_timeout * 0.8
                      if self.point_timeout else None)
        return {
            "dir": str(self.checkpoint_dir),
            "point_id": f"job-{job.key[:16]}",
            "every": self.checkpoint_every,
            "deadline_s": deadline_s,
            "stop_file": str(self._stop_file_path()),
        }

    def _refuse_second_daemon(self) -> None:
        try:
            info = json.loads(self._info_path().read_text())
            pid = int(info["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            return  # absent or stale garbage: ours to overwrite
        try:
            os.kill(pid, 0)
        except OSError:
            return  # recorded daemon is dead: stale file
        raise ServiceError(
            f"an experiment daemon (pid {pid}) already serves "
            f"{self.state_dir} — drain it first or pick another "
            f"--state-dir", code="already-running")

    def _write_daemon_info(self) -> None:
        info = {"pid": os.getpid(), "host": self.address[0],
                "port": self.address[1], "started_unix": time.time()}
        atomic_write(self._info_path(), json.dumps(info).encode(),
                     fsync=False)

    def _recover(self) -> None:
        """Rebuild job state from the journal (``--resume``).

        Jobs without a ``done``/``failed`` record re-queue; ``done``
        jobs whose cache entry vanished (source change re-keyed the
        cache, or the cache was cleared) re-queue too — the journal
        promises *at-least-once* execution, the cache provides the
        at-most-once half. Content keys are recomputed against the
        current code fingerprint, never trusted from disk.
        """
        records = self.journal.replay()
        order: list[str] = []
        for record in records:
            tag = record.get("t")
            if tag == "accepted":
                job_id = record.get("id")
                if not isinstance(job_id, str) or job_id in self._jobs:
                    continue
                try:
                    spec = validate_job(record.get("spec"))
                except ServiceError:
                    continue
                client = str(record.get("client") or "recovered")
                idem = record.get("idem")
                job = _Job(id=job_id, spec=spec,
                           key=job_key(self.cache, spec),
                           seq=self._parse_seq(job_id),
                           clients={client},
                           idem=idem if isinstance(idem, str) else None)
                self._jobs[job_id] = job
                order.append(job_id)
            elif tag in ("done", "failed"):
                job = self._jobs.get(record.get("id"))
                if job is None:
                    continue
                if tag == "done":
                    job.state = DONE
                else:
                    job.state = FAILED
                    failure = record.get("failure")
                    job.failure = (failure if isinstance(failure, dict)
                                   else {"exc_type": "Unknown",
                                         "message": "journalled failure "
                                                    "without payload"})
        for job_id in order:
            job = self._jobs[job_id]
            self._seq = max(self._seq, job.seq)
            if job.state == DONE and self.cache.get(job.key) is MISS:
                job.state = QUEUED  # result lost: run it again
            if job.idem:
                self._idem[job.idem] = job.id
            if job.state == FAILED:
                # failed specs must not swallow fresh identical
                # submissions, so they stay out of the dedup index.
                self._failed_total += 1
                continue
            self._by_key.setdefault(job.key, job.id)
            if job.state == QUEUED:
                self._queue.append(job)
                for client in job.clients:
                    self._inflight[client] = (
                        self._inflight.get(client, 0) + 1)
            else:  # DONE with an intact cache entry
                self._done_order.append(job.id)
                self._done_total += 1
        self._accepted_total = len(order)
        self.journal.compact(self._live_records())
        if self.journal.skipped:
            self.profiler.count("service.journal.torn_lines",
                                self.journal.skipped)

    @staticmethod
    def _parse_seq(job_id: str) -> int:
        match = _JOB_ID_RE.match(job_id)
        return int(match.group(1)) if match else 0

    # -- request handling (server threads) ---------------------------------

    def handle_request(self, message: dict) -> dict:
        """Dispatch one request; never raises (bugs become typed
        ``internal`` replies so one bad request cannot poison the
        connection loop, let alone the daemon)."""
        try:
            op = message.get("op")
            if op == "submit":
                return self._op_submit(message)
            if op == "status":
                if message.get("job_id") is None:
                    return self._op_health()
                return self._op_status(message)
            if op == "results":
                return self._op_results(message)
            if op == "health":
                return self._op_health()
            if op == "drain":
                return self._op_drain()
            return protocol.error_reply(
                "bad-request",
                f"unknown op {op!r} (choose from {list(protocol.OPS)})")
        except ServiceError as exc:
            return protocol.error_reply(exc.code, str(exc),
                                        exc.retry_after)
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            self.profiler.count("service.internal_errors")
            return protocol.error_reply(
                "internal", f"{type(exc).__name__}: {exc}")

    def _op_submit(self, message: dict) -> dict:
        client = message.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise ServiceError("client must be a non-empty string",
                               code="bad-request")
        idem = message.get("idempotency_key")
        if idem is not None and not isinstance(idem, str):
            raise ServiceError("idempotency_key must be a string",
                               code="bad-request")
        spec = validate_job(message.get("job"))
        key = job_key(self.cache, spec)
        with self._cond:
            if self._stop_now or self._draining:
                self.profiler.count("service.rejected.shutting-down")
                raise ServiceError(
                    "daemon is shutting down; not admitting jobs",
                    code="shutting-down")
            # idempotent replay: the same submission (retried by a
            # client that never saw our first reply) maps to the same
            # job, and a *different* job under a reused key is a bug
            # worth a loud typed error.
            if idem is not None and idem in self._idem:
                job = self._jobs.get(self._idem[idem])
                if job is not None:
                    if job.key != key:
                        raise ServiceError(
                            f"idempotency key {idem!r} was already used "
                            f"for a different job", code="bad-request")
                    job.clients.add(client)
                    self.profiler.count("service.idempotent_replays")
                    return protocol.ok_reply(job_id=job.id,
                                             state=job.state,
                                             coalesced=True)
            # content dedup: identical work coalesces onto one
            # execution (or straight onto its finished result).
            existing = self._by_key.get(key)
            if existing is not None and existing in self._jobs:
                job = self._jobs[existing]
                if job.state in (QUEUED, RUNNING):
                    job.clients.add(client)
                if idem is not None:
                    self._idem[idem] = job.id
                self.profiler.count("service.coalesced")
                return protocol.ok_reply(job_id=job.id, state=job.state,
                                         coalesced=True)
            # admission control: bounded per-client and global queues.
            if self._inflight.get(client, 0) >= self.per_client:
                self.profiler.count("service.rejected.client-limit")
                raise ServiceError(
                    f"client {client!r} already has "
                    f"{self.per_client} job(s) in flight",
                    code="client-limit", retry_after=0.25)
            if len(self._queue) >= self.max_queue:
                self.profiler.count("service.rejected.queue-full")
                raise ServiceError(
                    f"admission queue is full "
                    f"({self.max_queue} queued jobs)",
                    code="queue-full",
                    retry_after=self._retry_after_hint())
            self._seq += 1
            job = _Job(id=f"j{self._seq:06d}-{key[:10]}", spec=spec,
                       key=key, seq=self._seq, clients={client},
                       idem=idem)
            # WAL discipline: the accepted record hits disk before the
            # client ever hears "ok".
            self.journal.append({"t": "accepted", "id": job.id,
                                 "spec": spec, "key": key,
                                 "client": client, "idem": idem})
            self._jobs[job.id] = job
            self._by_key[key] = job.id
            if idem is not None:
                self._idem[idem] = job.id
            self._queue.append(job)
            self._inflight[client] = self._inflight.get(client, 0) + 1
            self._accepted_total += 1
            self.profiler.count("service.accepted")
            self._cond.notify_all()
            return protocol.ok_reply(job_id=job.id, state=QUEUED,
                                     coalesced=False)

    def _retry_after_hint(self) -> float:
        """Backpressure hint: scale with how oversubscribed we are."""
        per_worker = len(self._queue) / max(1, self.engine.jobs)
        return min(5.0, 0.05 * (1.0 + per_worker))

    def _get_job(self, message: dict) -> _Job:
        job_id = message.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError("job_id must be a string",
                               code="bad-request")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(
                f"no job {job_id!r} (never submitted, or evicted after "
                f"completion — identical resubmission is a cache hit)",
                code="job-not-found")
        return job

    def _op_status(self, message: dict) -> dict:
        job = self._get_job(message)
        with self._lock:
            return protocol.ok_reply(job_id=job.id, state=job.state,
                                     kind=job.spec.get("kind"))

    def _op_results(self, message: dict) -> dict:
        job = self._get_job(message)
        with self._lock:
            state, result, failure = job.state, job.result, job.failure
            key = job.key
        if state == FAILED:
            return protocol.ok_reply(job_id=job.id, state=FAILED,
                                     failure=failure)
        if state != DONE:
            return protocol.ok_reply(job_id=job.id, state=state)
        if result is None:
            result = self.cache.get(key)  # recovered jobs load lazily
            if result is MISS:
                raise ServiceError(
                    f"job {job.id} is done but its cached result was "
                    f"evicted; resubmit the job to recompute",
                    code="result-unavailable")
            with self._lock:
                job.result = result
        return protocol.ok_reply(job_id=job.id, state=DONE,
                                 value=result)

    def _op_health(self) -> dict:
        with self._lock:
            stats = self.engine.stats
            return protocol.ok_reply(
                pid=os.getpid(),
                uptime_s=round(time.monotonic() - self._started_at, 3)
                         if self._started else 0.0,
                draining=self._draining or self._stop_now,
                queue_depth=len(self._queue),
                running=self._running,
                jobs_tracked=len(self._jobs),
                accepted_total=self._accepted_total,
                done_total=self._done_total,
                failed_total=self._failed_total,
                limits={"max_queue": self.max_queue,
                        "per_client": self.per_client,
                        "batch_max": self.batch_max,
                        "max_done": self.max_done},
                workers=self.engine.jobs,
                engine={"points": stats.points,
                        "executed": stats.executed,
                        "cache_hits": stats.cache_hits,
                        "cache_stores": stats.cache_stores,
                        "failed": stats.failed,
                        "retried": stats.retried,
                        "preempted": stats.preempted},
                checkpoints=(
                    {"dir": str(self.checkpoint_dir),
                     "hits": self._ckpt_store.hit_count()}
                    if self._ckpt_store is not None else None),
                cache={"hits": self.cache.hits,
                       "misses": self.cache.misses},
                journal={"appended": self.journal.appended,
                         "torn_lines_skipped": self.journal.skipped},
                counters={k: v for k, v in
                          sorted(self.profiler.counters.items())
                          if k.startswith("service.")},
            )

    def _op_drain(self) -> dict:
        with self._lock:
            queued = len(self._queue)
        self.request_drain()
        return protocol.ok_reply(draining=True, queued=queued)

    # -- scheduler (its own thread) ----------------------------------------

    def _scheduler_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    while (not self._queue and not self._stop_now
                           and not self._draining):
                        self._cond.wait(0.5)
                    if self._stop_now:
                        return
                    if not self._queue:
                        if self._draining:
                            return
                        continue
                    batch: list[_Job] = []
                    while self._queue and len(batch) < self.batch_max:
                        job = self._queue.popleft()
                        job.state = RUNNING
                        batch.append(job)
                    self._running += len(batch)
                self._run_batch(batch)
                if self.journal.appended >= self.compact_every:
                    with self._lock:
                        self.journal.compact(self._live_records())
        finally:
            self._finish()

    def _run_batch(self, batch: list[_Job]) -> None:
        """One engine campaign over a mixed batch of queued jobs.

        Results stream back through ``on_result`` as each point
        finalises — a job is journalled done and visible to clients
        the moment *it* finishes, not when its batch does.
        """
        def on_result(index: int, value: Any) -> None:
            self._job_finished(batch[index], value)

        try:
            self.engine.run(
                execute_job,
                [(job.spec, self._job_checkpoint(job)) for job in batch],
                keys=[job.key for job in batch], label="service",
                on_result=on_result)
        except Exception as exc:  # noqa: BLE001 - engine bug guard
            payload = {"exc_type": type(exc).__name__,
                       "message": f"engine campaign failed: {exc}",
                       "traceback": ""}
            with self._lock:
                for job in batch:
                    if job.state == RUNNING:
                        self._job_finished(
                            job, PointFailure(**payload))

    def _job_finished(self, job: _Job, value: Any) -> None:
        with self._cond:
            if job.state != RUNNING:
                return
            if (isinstance(value, PointFailure)
                    and value.exc_type == "SimulationPreempted"):
                # Cooperative yield (shutdown stop file): the job's
                # snapshot is on disk, so put it back at the head of
                # the queue. No journal record — it stays accepted-
                # without-done, exactly what ``--resume`` re-queues —
                # and its clients keep their in-flight slots.
                job.state = QUEUED
                job.failure = None
                self._running -= 1
                self._queue.appendleft(job)
                self.profiler.count("service.jobs_preempted")
                self._cond.notify_all()
                return
            self._running -= 1
            for client in job.clients:
                remaining = self._inflight.get(client, 1) - 1
                if remaining > 0:
                    self._inflight[client] = remaining
                else:
                    self._inflight.pop(client, None)
            if isinstance(value, PointFailure):
                job.state = FAILED
                job.failure = value.to_payload()
                self._failed_total += 1
                # a failed spec must be resubmittable as a fresh run.
                if self._by_key.get(job.key) == job.id:
                    del self._by_key[job.key]
                self.journal.append({"t": "failed", "id": job.id,
                                     "failure": job.failure})
                self.profiler.count("service.jobs_failed")
            else:
                job.state = DONE
                job.result = value
                self._done_total += 1
                self.journal.append({"t": "done", "id": job.id})
                self._done_order.append(job.id)
                self.profiler.count("service.jobs_done")
                self._evict_done()
            self._cond.notify_all()

    def _evict_done(self) -> None:
        """LRU bound on finished jobs kept for status/results lookups
        (their values stay reachable via the content-addressed cache)."""
        while len(self._done_order) > self.max_done:
            job_id = self._done_order.popleft()
            job = self._jobs.pop(job_id, None)
            if job is None:
                continue
            if self._by_key.get(job.key) == job_id:
                del self._by_key[job.key]
            if job.idem and self._idem.get(job.idem) == job_id:
                del self._idem[job.idem]
            self.profiler.count("service.jobs_evicted")

    def _live_records(self) -> list[dict]:
        """The compacted journal image of the current job table."""
        records: list[dict] = []
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            records.append({"t": "accepted", "id": job.id,
                            "spec": job.spec, "key": job.key,
                            "client": next(iter(job.clients), ""),
                            "idem": job.idem})
            if job.state == DONE:
                records.append({"t": "done", "id": job.id})
            elif job.state == FAILED:
                records.append({"t": "failed", "id": job.id,
                                "failure": job.failure})
        return records

    def _finish(self) -> None:
        """Scheduler-exit cleanup: close the engine pool, compact and
        close the journal, stop the TCP server, drop the discovery
        file, and release :meth:`wait`-ers."""
        try:
            self.engine.close()
            with self._lock:
                try:
                    self.journal.compact(self._live_records())
                finally:
                    self.journal.close()
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            try:
                self._info_path().unlink()
            except OSError:
                pass
        finally:
            self._stopped.set()
