"""Tests for the hardened experiment service.

Covers the wire protocol (typed errors for every malformed input), job
validation, the daemon's submit/status/results lifecycle, content-key
dedup (which also absorbs a client's retried submission), admission
control under injected overload, graceful drain, journal-driven resume
with completion read from the result cache (older journals with
``done`` records included) — and the acceptance criterion: a daemon
killed with ``SIGKILL`` mid-campaign resumes and produces results
byte-identical to a serial run of the same points.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JobNotFound, QueueFull, ServiceError
from repro.harness import FAULT_PLAN_ENV, FAULT_STATE_ENV
from repro.harness.result_cache import MISS, ResultCache
from repro.service import (
    ExperimentDaemon,
    Journal,
    ProtocolError,
    ServiceClient,
    job_key,
    validate_job,
)
from repro.service import protocol

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- fixtures ----------------------------------------------------------------

@pytest.fixture
def daemon_factory(tmp_path):
    """Build started daemons that are always stopped at teardown."""
    daemons = []

    def make(state_dir=None, **kwargs):
        kwargs.setdefault("jobs", 1)
        daemon = ExperimentDaemon(state_dir or tmp_path / "state",
                                  **kwargs)
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield make
    for daemon in daemons:
        daemon.request_stop()
        assert daemon.wait(30), "daemon failed to stop in teardown"


def _client(daemon, **kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff", 0.01)
    return ServiceClient(daemon.state_dir, **kwargs)


def _probe(value=0, **extra):
    return {"kind": "probe", "value": value, **extra}


#: a dse job small enough for a unit test: 8 points, 5 confirmations.
TINY_DSE = {"kind": "dse", "benchmark": "vecadd", "n": 256,
            "cores": [1, 2], "warps": [2, 4], "threads": [2, 4],
            "calibrated": False}


# -- protocol framing --------------------------------------------------------

class TestProtocol:
    def test_eof_is_none(self):
        assert protocol.read_message(io.BytesIO(b"")) is None

    def test_oversized_line_rejected(self):
        line = b"x" * (protocol.MAX_LINE_BYTES + 10)
        with pytest.raises(ProtocolError):
            protocol.read_message(io.BytesIO(line))

    def test_torn_line_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.read_message(io.BytesIO(b'{"op": "health"'))

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.read_message(io.BytesIO(b"not json at all\n"))

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.read_message(io.BytesIO(b"[1, 2, 3]\n"))

    def test_roundtrip(self):
        buf = io.BytesIO()
        protocol.write_message(buf, {"op": "health", "n": 3})
        buf.seek(0)
        assert protocol.read_message(buf) == {"op": "health", "n": 3}

    def test_exception_mapping(self):
        assert isinstance(
            protocol.exception_for_reply({"code": "queue-full",
                                          "error": "x",
                                          "retry_after": 0.5}),
            QueueFull)
        assert isinstance(
            protocol.exception_for_reply({"code": "job-not-found",
                                          "error": "x"}),
            JobNotFound)
        exc = protocol.exception_for_reply({"code": "internal",
                                            "error": "x"})
        assert type(exc) is ServiceError and exc.code == "internal"


class TestMalformedOverTcp:
    """A hostile byte stream gets a typed reply, never a dead daemon."""

    def _raw(self, daemon, payload: bytes) -> dict:
        with socket.create_connection(daemon.address, timeout=10) as s:
            s.sendall(payload)
            with s.makefile("rb") as stream:
                return json.loads(stream.readline())

    @pytest.mark.parametrize("payload", [
        b"garbage that is not json\n",
        b'"a bare string"\n',
        b'{"op": "no-such-op"}\n',
        b'{"no_op_at_all": 1}\n',
        b'{"op": "submit", "job": {"kind": "nope"}}\n',
        b'{"op": "results", "job_id": 42}\n',
        b'{"op": "status"}\n',
    ])
    def test_bad_bytes_get_bad_request(self, daemon_factory, payload):
        daemon = daemon_factory()
        reply = self._raw(daemon, payload)
        assert reply["ok"] is False
        assert reply["code"] in ("bad-request",)
        # and the daemon still serves the next (well-formed) client:
        assert _client(daemon).health()["ok"] is True

    def test_huge_line_rejected_not_buffered(self, daemon_factory):
        daemon = daemon_factory()
        blob = b'{"op": "submit", "pad": "' + b"x" * (2 << 20) + b'"}\n'
        reply = self._raw(daemon, blob)
        assert reply["ok"] is False and reply["code"] == "bad-request"
        assert _client(daemon).health()["ok"] is True


# -- job validation ----------------------------------------------------------

class TestValidateJob:
    def test_unknown_kind(self):
        with pytest.raises(ServiceError) as exc:
            validate_job({"kind": "mystery"})
        assert exc.value.code == "bad-request"

    def test_not_an_object(self):
        with pytest.raises(ServiceError):
            validate_job(["kind", "probe"])

    def test_unknown_field(self):
        with pytest.raises(ServiceError) as exc:
            validate_job(_probe(0, surprise=1))
        assert "surprise" in str(exc.value)

    def test_fig7_requires_benchmark(self):
        with pytest.raises(ServiceError):
            validate_job({"kind": "fig7-cell", "benchmark": "quicksort",
                          "warps": 4, "threads": 4})

    def test_fig7_bounds(self):
        with pytest.raises(ServiceError):
            validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                          "warps": 80000, "threads": 4})
        with pytest.raises(ServiceError):
            validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                          "warps": 4, "threads": 4, "n": 1})

    def test_fig7_type_checks(self):
        with pytest.raises(ServiceError):
            validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                          "warps": "four", "threads": 4})
        with pytest.raises(ServiceError):
            validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                          "warps": True, "threads": 4})

    def test_fig7_defaults(self):
        spec = validate_job({"kind": "fig7-cell", "benchmark": "vecadd",
                             "warps": 2, "threads": 8})
        assert spec["cores"] == 4 and spec["n"] == 4096

    def test_probe_bounds(self):
        with pytest.raises(ServiceError):
            validate_job(_probe(sleep_s=-1))
        with pytest.raises(ServiceError):
            validate_job(_probe(sleep_s=10_000))
        with pytest.raises(ServiceError):
            validate_job(_probe(boom="yes"))
        with pytest.raises(ServiceError):
            validate_job(_probe(nonce=7))
        with pytest.raises(ServiceError):
            validate_job(_probe(value=[1, 2]))

    def test_dse_defaults_and_removed_modes(self):
        spec = validate_job({"kind": "dse", "benchmark": "vecadd",
                             "cores": [4, 1, 4]})
        assert spec == {"kind": "dse", "benchmark": "vecadd", "n": 4096,
                        "cores": [1, 4], "warps": [2, 4, 8, 16],
                        "threads": [2, 4, 8, 16], "confirm": "frontier",
                        "frontier_cap": 8, "calibrated": True}
        for extra in ({"confirm": "top"}, {"simulate_top": 8}):
            with pytest.raises(ServiceError) as exc:
                validate_job({"kind": "dse", "benchmark": "vecadd",
                              **extra})
            assert exc.value.code == "bad-request"

    def test_fig7_key_matches_sweep_cache_key(self, daemon_factory,
                                              tmp_path):
        """A cell the sweep cached is a cache hit for every other
        consumer of the Figure 7 cell: a DSE confirmation, a
        calibration sample and a service fig7-cell job all execute
        nothing."""
        from repro.calibrate import collect_vortex_samples
        from repro.harness import ExperimentEngine, ResultCache, run_sweep
        from repro.harness.dse import run_dse

        state = tmp_path / "state"
        cache = ResultCache(state / "cache")
        cell = dict(cores=2, warps=2, threads=8, n=512)
        sweep = run_sweep("transpose", cores=2, n=512, warp_sizes=(2,),
                          thread_sizes=(8,), cache=cache)
        cycles = sweep.cycles[(2, 8)]

        with ExperimentEngine(cache=cache) as engine:
            dse = run_dse("transpose", n=512, core_counts=(2,),
                          warp_sizes=(2,), thread_sizes=(8,),
                          engine=engine)
            samples = collect_vortex_samples(
                benchmarks=("transpose",), n=512, cores=2,
                cells=((2, 8),), engine=engine)
        assert engine.stats.executed == 0
        assert dse.best.simulated_cycles == cycles
        assert samples[0].true_cycles == cycles

        daemon = daemon_factory(state_dir=state)
        client = _client(daemon)
        job_id = client.submit({"kind": "fig7-cell",
                                "benchmark": "transpose", **cell})["job_id"]
        result = client.wait(job_id, timeout=60)
        assert result["value"]["cycles"] == cycles
        daemon.request_drain()
        assert daemon.wait(30)
        assert daemon.engine.stats.executed == 0


# -- daemon lifecycle --------------------------------------------------------

class TestRoundtrip:
    def test_submit_status_results(self, daemon_factory):
        daemon = daemon_factory()
        client = _client(daemon)
        reply = client.submit(_probe(41))
        assert reply["ok"] and reply["coalesced"] is False
        job_id = reply["job_id"]
        assert client.status(job_id)["state"] in (
            "queued", "running", "done")
        result = client.wait(job_id, timeout=30)
        assert result["state"] == "done"
        assert result["value"] == {"value": 41}

    def test_failure_payload(self, daemon_factory):
        daemon = daemon_factory()
        client = _client(daemon)
        job_id = client.submit(_probe(boom=True))["job_id"]
        result = client.wait(job_id, timeout=30)
        assert result["state"] == "failed"
        assert result["failure"]["exc_type"] == "RuntimeError"
        assert "boom" in result["failure"]["message"]

    def test_failed_spec_is_resubmittable(self, daemon_factory):
        """A failure must not poison the dedup index: resubmitting the
        same spec starts a fresh job instead of replaying the corpse."""
        daemon = daemon_factory()
        client = _client(daemon)
        first = client.submit(_probe(boom=True))["job_id"]
        client.wait(first, timeout=30)
        second = client.submit(_probe(boom=True))
        assert second["job_id"] != first
        assert second["coalesced"] is False

    def test_content_dedup_coalesces(self, daemon_factory):
        daemon = daemon_factory()
        client = _client(daemon)
        a = client.submit(_probe(7))
        b = client.submit(_probe(7))
        c = client.submit(_probe(8))
        assert b["job_id"] == a["job_id"] and b["coalesced"] is True
        assert c["job_id"] != a["job_id"]
        client.wait(a["job_id"], timeout=30)
        health = client.health()
        assert health["counters"].get("service.coalesced", 0) == 1

    def test_lost_reply_retry_coalesces(self, daemon_factory, tmp_path):
        """A client that never saw its submit reply sends the same
        message again (an older client's ``idempotency_key`` field is
        ignored): the retry lands on the first job by content key, and
        the journal records one accepted job and nothing for its
        completion."""
        daemon = daemon_factory()
        message = {"op": "submit", "client": "retrier", "job": _probe(1),
                   "idempotency_key": "lost-reply"}
        first = daemon.handle_request(dict(message))
        retry = daemon.handle_request(dict(message))
        assert first["ok"] and first["coalesced"] is False
        assert retry["job_id"] == first["job_id"]
        assert retry["coalesced"] is True
        _client(daemon).wait(first["job_id"], timeout=30)
        records = Journal(tmp_path / "state" / "journal.jsonl").replay()
        assert [(r["t"], r["id"]) for r in records] == [
            ("accepted", first["job_id"])]

    def test_job_not_found(self, daemon_factory):
        daemon = daemon_factory()
        with pytest.raises(JobNotFound):
            _client(daemon).results("j000099-0123456789")

    def test_health_shape(self, daemon_factory):
        daemon = daemon_factory()
        health = _client(daemon).health()
        for field in ("pid", "queue_depth", "running", "limits",
                      "engine", "cache", "journal", "counters"):
            assert field in health
        assert health["pid"] == os.getpid()
        assert health["limits"]["max_queue"] == daemon.max_queue

    def test_batches_leave_the_profiler_empty(self, tmp_path):
        """The daemon's profiler keeps only the ``service.`` counters
        health reports: engine batches add no events to it, so a
        long-lived daemon does not grow with every batch."""
        daemon = ExperimentDaemon(tmp_path / "state")
        for i in range(20):
            assert daemon.engine.run(abs, [(-i,)]) == [i]
        assert daemon.profiler.events == []

    def test_status_without_id_is_health(self, daemon_factory):
        daemon = daemon_factory()
        reply = _client(daemon).status()
        assert "queue_depth" in reply

    def test_fig7_cell_runs_and_caches(self, daemon_factory):
        daemon = daemon_factory()
        client = _client(daemon)
        spec = {"kind": "fig7-cell", "benchmark": "vecadd",
                "warps": 2, "threads": 2, "cores": 2, "n": 512}
        job_id = client.submit(spec)["job_id"]
        result = client.wait(job_id, timeout=60)
        assert result["state"] == "done"
        assert result["value"]["cycles"] > 0
        key = job_key(daemon.cache, validate_job(spec))
        assert daemon.cache.get(key) is not MISS

    def test_dse_job_confirms_the_frontier(self, daemon_factory,
                                           tmp_path):
        daemon = daemon_factory(checkpoint_dir=tmp_path / "ck",
                                point_timeout=120.0)
        client = _client(daemon)
        job_id = client.submit(TINY_DSE)["job_id"]
        result = client.wait(job_id, timeout=120)
        assert result["state"] == "done"
        best = result["value"]["best"]
        assert (best["config"], best["simulated_cycles"]) == (
            "2c4w4t", 1030)
        # the winner is an ordinary Figure 7 cell: the same work, the
        # same cycles as a fig7-cell job for it — and the dse job's
        # confirmation already put it in the daemon's cache, so the
        # fig7-cell job executes nothing (the dse job is the one point).
        cell = client.submit({"kind": "fig7-cell", "benchmark": "vecadd",
                              "cores": 2, "warps": 4, "threads": 4,
                              "n": 256})["job_id"]
        assert client.wait(cell, timeout=60)["value"]["cycles"] == 1030
        daemon.request_drain()
        assert daemon.wait(30)
        assert daemon.engine.stats.executed == 1

    def test_calibrated_dse_jobs_share_calibration_cells(
            self, daemon_factory, monkeypatch, tmp_path):
        """A second calibrated dse job reuses the first one's SimX
        calibration cells from the daemon's cache: with every
        calibration simulation armed to fail, it still succeeds."""
        daemon = daemon_factory()
        client = _client(daemon)
        first = client.submit({**TINY_DSE, "calibrated": True})["job_id"]
        assert client.wait(first, timeout=120)["state"] == "done"
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise:calibrate vortex#:99")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path / "fault-state"))
        second = client.submit({**TINY_DSE, "calibrated": True,
                                "cores": [1]})["job_id"]
        result = client.wait(second, timeout=120)
        assert result["state"] == "done", result.get("failure")

    def test_done_eviction_keeps_serving(self, daemon_factory):
        daemon = daemon_factory(max_done=2)
        client = _client(daemon)
        ids = [client.submit(_probe(i))["job_id"] for i in range(4)]
        for job_id in ids:
            try:
                client.wait(job_id, timeout=30)
            except JobNotFound:
                pass  # evicted before we polled: also fine
        # the two oldest are evicted; resubmitting them is a cache hit
        hits_before = daemon.cache.hits
        replay = client.submit(_probe(0))
        assert client.wait(replay["job_id"],
                           timeout=30)["value"] == {"value": 0}
        assert daemon.cache.hits > hits_before


# -- admission control under overload ----------------------------------------

def _occupy_scheduler(client, daemon, sleep_s=5.0):
    """Park a sleeper probe in the engine so later submissions queue."""
    job_id = client.submit(_probe("plug", sleep_s=sleep_s,
                                  nonce="plug"))["job_id"]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if client.health()["running"] >= 1:
            return job_id
        time.sleep(0.02)
    raise AssertionError("sleeper never started running")


class TestAdmissionControl:
    def test_queue_full_with_retry_after(self, daemon_factory):
        daemon = daemon_factory(batch_max=1, max_queue=2)
        client = _client(daemon, retries=0)
        _occupy_scheduler(client, daemon, sleep_s=3.0)
        client.submit(_probe(1))
        client.submit(_probe(2))
        with pytest.raises(QueueFull) as exc:
            client.submit(_probe(3))
        assert exc.value.code == "queue-full"
        assert exc.value.retry_after and exc.value.retry_after > 0
        # the daemon stays responsive while saturated:
        health = client.health()
        assert health["queue_depth"] == 2
        assert health["counters"]["service.rejected.queue-full"] == 1

    def test_client_limit_is_per_client(self, daemon_factory):
        daemon = daemon_factory(batch_max=1, per_client=1, max_queue=8)
        alice = _client(daemon, retries=0, client_id="alice")
        bob = _client(daemon, retries=0, client_id="bob")
        _occupy_scheduler(alice, daemon, sleep_s=3.0)
        with pytest.raises(QueueFull) as exc:
            alice.submit(_probe(1))
        assert exc.value.code == "client-limit"
        # a different client is unaffected by alice's cap:
        assert bob.submit(_probe(2))["ok"] is True

    def test_client_retry_rides_out_backpressure(self, daemon_factory):
        """The client's bounded backoff turns a transient queue-full
        into a success instead of an error."""
        daemon = daemon_factory(batch_max=1, max_queue=1)
        patient = _client(daemon, retries=8, backoff=0.05,
                          client_id="patient")
        _occupy_scheduler(patient, daemon, sleep_s=0.5)
        patient.submit(_probe(1))  # fills the queue
        reply = patient.submit(_probe(2))  # retried until admitted
        assert reply["ok"] is True

    def test_shutting_down_rejects_submissions(self, daemon_factory):
        daemon = daemon_factory()
        client = _client(daemon, retries=0)
        # an unfinished sleeper keeps the draining daemon's listener
        # open, so the next submit reaches it instead of a closed socket
        client.submit(_probe("sleeper", sleep_s=2.0))
        client.drain()
        with pytest.raises(ServiceError) as exc:
            client.submit(_probe(9))
        assert exc.value.code == "shutting-down"

    def test_drain_finishes_queued_work(self, daemon_factory):
        daemon = daemon_factory(batch_max=1)
        client = _client(daemon)
        ids = [client.submit(_probe(i, nonce="drain"))["job_id"]
               for i in range(3)]
        client.drain()
        assert daemon.wait(30), "drain did not stop the daemon"
        for job_id in ids:
            assert daemon._jobs[job_id].state == "done"

    def test_second_daemon_refused(self, daemon_factory, tmp_path):
        daemon_factory(state_dir=tmp_path / "shared")
        second = ExperimentDaemon(tmp_path / "shared")
        with pytest.raises(ServiceError) as exc:
            second.start()
        assert exc.value.code == "already-running"


# -- journal + resume --------------------------------------------------------

class TestResume:
    def test_stop_leaves_queued_jobs_journalled(self, daemon_factory,
                                                tmp_path):
        state = tmp_path / "state"
        daemon = daemon_factory(state_dir=state, batch_max=1)
        client = _client(daemon)
        _occupy_scheduler(client, daemon, sleep_s=1.0)
        queued = [client.submit(_probe(i, nonce="resume"))["job_id"]
                  for i in range(3)]
        daemon.request_stop()
        assert daemon.wait(30)
        # graceful stop ran only the in-flight batch; the queued jobs
        # survive in the journal...
        records = Journal(state / "journal.jsonl").replay()
        journalled = {r["id"] for r in records if r["t"] == "accepted"}
        assert set(queued) <= journalled
        # ...and --resume runs them to completion.
        revived = daemon_factory(state_dir=state, resume=True,
                                 batch_max=1)
        client2 = _client(revived, retries=5)
        for i, job_id in enumerate(queued):
            result = client2.wait(job_id, timeout=60)
            assert result["state"] == "done"
            assert result["value"] == {"value": i}

    def test_resume_skips_done_work_via_cache(self, daemon_factory,
                                              tmp_path):
        state = tmp_path / "state"
        daemon = daemon_factory(state_dir=state)
        client = _client(daemon)
        job_id = client.submit(_probe(5))["job_id"]
        client.wait(job_id, timeout=30)
        daemon.request_stop()
        assert daemon.wait(30)
        revived = daemon_factory(state_dir=state, resume=True)
        client2 = _client(revived)
        result = client2.wait(job_id, timeout=30)
        assert result["value"] == {"value": 5}
        assert revived.engine.stats.executed == 0  # nothing re-ran

    def test_resume_tolerates_torn_journal_tail(self, daemon_factory,
                                                tmp_path):
        state = tmp_path / "state"
        daemon = daemon_factory(state_dir=state, batch_max=1)
        client = _client(daemon)
        _occupy_scheduler(client, daemon, sleep_s=1.0)
        job_id = client.submit(_probe(3, nonce="torn"))["job_id"]
        daemon.request_stop()
        assert daemon.wait(30)
        with open(state / "journal.jsonl", "a") as fh:
            fh.write('{"t": "accepted", "id": "j9')  # crash mid-append
        revived = daemon_factory(state_dir=state, resume=True)
        assert revived.profiler.counters[
            "service.journal.torn_lines"] == 1
        result = _client(revived, retries=5).wait(job_id, timeout=60)
        assert result["value"] == {"value": 3}

    def test_done_record_with_lost_cache_entry_reruns(self, tmp_path):
        state = tmp_path / "state"
        daemon = ExperimentDaemon(state)
        try:
            daemon.start()
            client = _client(daemon)
            job_id = client.submit(_probe(11))["job_id"]
            client.wait(job_id, timeout=30)
        finally:
            daemon.request_stop()
            assert daemon.wait(30)
        daemon.cache.clear()  # the at-most-once half vanished
        revived = ExperimentDaemon(state, resume=True)
        try:
            revived.start()
            result = _client(revived, retries=5).wait(job_id,
                                                      timeout=60)
            assert result["value"] == {"value": 11}
            assert revived.engine.stats.executed == 1  # really re-ran
        finally:
            revived.request_stop()
            assert revived.wait(30)

    def test_journal_compaction_is_atomic_image(self, daemon_factory,
                                                tmp_path):
        state = tmp_path / "state"
        daemon = daemon_factory(state_dir=state)
        client = _client(daemon)
        for i in range(5):
            client.wait(client.submit(_probe(i))["job_id"], timeout=30)
        daemon.request_stop()
        assert daemon.wait(30)
        # the shutdown compaction keeps one accepted record per job (a
        # completion is its cache entry) and no temp file lingers
        records = Journal(state / "journal.jsonl").replay()
        assert [r["t"] for r in records] == ["accepted"] * 5
        assert len({r["id"] for r in records}) == 5
        assert not list(state.glob("*.tmp"))

    @pytest.mark.parametrize("cached", [True, False])
    def test_resume_of_done_record_journal(self, daemon_factory,
                                           tmp_path, cached):
        """A journal from a daemon that still wrote ``done`` records and
        ``idem`` fields resumes: the job is done from the cache with
        nothing executed, and runs exactly once when its cache entry is
        gone."""
        state = tmp_path / "state"
        spec = validate_job(_probe(5))
        cache = ResultCache(state / "cache")
        key = job_key(cache, spec)
        if cached:
            cache.put(key, {"value": 5})
        job_id = f"j000001-{key[:10]}"
        journal = Journal(state / "journal.jsonl")
        journal.append({"t": "accepted", "id": job_id, "spec": spec,
                        "key": key, "client": "old", "idem": "abc"})
        journal.append({"t": "done", "id": job_id})
        journal.close()
        daemon = daemon_factory(state_dir=state, resume=True)
        result = _client(daemon).wait(job_id, timeout=30)
        assert result["state"] == "done"
        assert result["value"] == {"value": 5}
        daemon.request_drain()
        assert daemon.wait(30)
        assert daemon.engine.stats.executed == (0 if cached else 1)

    @pytest.mark.parametrize("with_done", [False, True])
    def test_unvalidatable_journal_record_recovers_failed(
            self, daemon_factory, tmp_path, with_done):
        """A dse spec journalled before ``simulate_top`` was removed no
        longer validates: resume reports the job failed, naming the
        field, instead of dropping it — and never runs it."""
        state = tmp_path / "state"
        journal = Journal(state / "journal.jsonl")
        job_id = "j000001-0123456789"
        journal.append({"t": "accepted", "id": job_id, "client": "old",
                        "idem": None, "key": "0" * 64,
                        "spec": {**TINY_DSE, "confirm": "frontier",
                                 "frontier_cap": 8, "simulate_top": 8}})
        if with_done:
            journal.append({"t": "done", "id": job_id})
        journal.close()
        daemon = daemon_factory(state_dir=state, resume=True)
        result = _client(daemon).results(job_id)
        assert result["state"] == "failed"
        assert "simulate_top" in result["failure"]["message"]
        daemon.request_drain()
        assert daemon.wait(30)
        assert daemon.engine.stats.executed == 0

    def test_start_sweeps_orphaned_state_dir_tmp(self, daemon_factory,
                                                 tmp_path):
        """A temp file a killed daemon stranded mid-compaction or
        mid-``daemon.json`` write is gone once a new daemon starts."""
        state = tmp_path / "state"
        state.mkdir()
        orphan = state / "tmpdeadbeef.tmp"
        orphan.write_text('{"t": "accepted"')
        daemon_factory(state_dir=state, resume=True)
        assert not orphan.exists()


# -- fault injection through the service -------------------------------------

class TestServiceFaults:
    def test_injected_fault_is_retried_through_service(
            self, daemon_factory, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise:service#0:1")
        monkeypatch.setenv(FAULT_STATE_ENV,
                           str(tmp_path / "fault-state"))
        daemon = daemon_factory(retries=1)
        client = _client(daemon)
        job_id = client.submit(_probe(13))["job_id"]
        result = client.wait(job_id, timeout=30)
        assert result["state"] == "done"
        assert result["value"] == {"value": 13}
        assert daemon.engine.stats.retried == 1

    def test_injected_fault_exhausting_retries_fails_job(
            self, daemon_factory, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise:service#0:5")
        monkeypatch.setenv(FAULT_STATE_ENV,
                           str(tmp_path / "fault-state"))
        daemon = daemon_factory(retries=1)
        client = _client(daemon)
        job_id = client.submit(_probe(13))["job_id"]
        result = client.wait(job_id, timeout=30)
        assert result["state"] == "failed"
        assert result["failure"]["exc_type"] == "FaultInjected"


# -- crash recovery (subprocess, SIGKILL) ------------------------------------

def _spawn_serve(state_dir, *extra):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop(FAULT_PLAN_ENV, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--jobs", "1", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    info = Path(state_dir) / "daemon.json"
    while time.monotonic() < deadline:
        if info.exists():
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited early:\n{proc.stdout.read()}")
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon.json never appeared")


CELLS = [{"kind": "fig7-cell", "benchmark": bench, "warps": w,
          "threads": t, "cores": 2, "n": 512}
         for bench in ("vecadd", "transpose")
         for (w, t) in ((2, 2), (2, 4))]


class TestKillRecovery:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """THE acceptance test: SIGKILL the daemon mid-campaign, resume
        it, and the recovered campaign's results are byte-identical to
        running the same points serially in this process."""
        state = tmp_path / "state"
        proc = _spawn_serve(state, "--batch-max", "1")
        client = ServiceClient(state, retries=5, backoff=0.05)
        try:
            # a sleeper occupies the single-job scheduler so the fig7
            # cells are all still queued when we pull the trigger
            plug = client.submit(_probe("plug", sleep_s=8.0,
                                        nonce="kill-test"))
            ids = [client.submit(cell)["job_id"] for cell in CELLS]
            assert client.health()["queue_depth"] >= len(CELLS)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(30)
        # resume: only unfinished points re-run, then byte-compare
        proc = _spawn_serve(state, "--resume")
        try:
            client = ServiceClient(state, retries=8, backoff=0.05)
            recovered = {}
            for cell, job_id in zip(CELLS, ids):
                reply = client.wait(job_id, timeout=120)
                assert reply["state"] == "done", reply
                recovered[job_id] = reply["value"]
            from repro.harness.sweep import sweep_point
            from repro.vortex import VortexConfig

            for cell, job_id in zip(CELLS, ids):
                expected = sweep_point(
                    cell["benchmark"],
                    VortexConfig().with_geometry(
                        cores=cell["cores"], warps=cell["warps"],
                        threads=cell["threads"]),
                    cell["n"])
                assert (json.dumps(recovered[job_id], sort_keys=True)
                        == json.dumps(expected, sort_keys=True)), (
                    f"recovered result for {cell} diverged")
            client.drain()
            assert proc.wait(30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)

    @pytest.mark.slow
    def test_worker_kill_fault_plan_through_service_cli(self, tmp_path):
        """A kill-fault in a *worker* (not the daemon) is absorbed by
        the engine's retry/respawn machinery behind the service."""
        state = tmp_path / "state"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env[FAULT_PLAN_ENV] = "kill:service:1"
        env[FAULT_STATE_ENV] = str(tmp_path / "fault-state")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state), "--jobs", "2",
             "--retries", "1"],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            deadline = time.monotonic() + 60
            info = state / "daemon.json"
            while not info.exists():
                assert time.monotonic() < deadline
                assert proc.poll() is None
                time.sleep(0.05)
            client = ServiceClient(state, retries=8, backoff=0.05)
            ids = [client.submit(_probe(i, nonce="chaos"))["job_id"]
                   for i in range(4)]
            for i, job_id in enumerate(ids):
                reply = client.wait(job_id, timeout=120)
                assert reply["state"] == "done"
                assert reply["value"] == {"value": i}
            client.drain()
            assert proc.wait(60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)


# -- graceful CLI shutdown ---------------------------------------------------

class TestServeSignals:
    @pytest.mark.parametrize("signum",
                             [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_130_without_traceback(self, tmp_path, signum):
        state = tmp_path / "state"
        proc = _spawn_serve(state)
        time.sleep(0.2)
        os.kill(proc.pid, signum)
        assert proc.wait(30) == 130
        output = proc.stdout.read()
        assert "Traceback" not in output
        # graceful exit removed the discovery file
        assert not (state / "daemon.json").exists()
