"""Closed-loop load generator for the ``service`` workload.

One process (this round) starts ``python -m repro serve --jobs 1`` and
drives it from two client threads, because callers of ``submit --wait``
block on the reply. Each thread submits a campaign of 1-8 fig7-cell
jobs, then polls ``ServiceClient.results`` every :data:`POLL_S` until
every job of the campaign is done, then submits its next campaign.

The stream comes from ``--seed`` and the round number alone, and the
daemon sees only the generated specs. Every round runs each spec of
:data:`SPACE` once, in a seeded order, plus about a fifth of jobs that
repeat an earlier spec, cut into campaigns whose sizes are
:data:`CAMPAIGN_CYCLES` shuffled copies of 1..:data:`CAMPAIGN_MAX`. So
the simulated work, the job count and every exact count are the same
for every seed, while order, campaign sizes and repeats vary. Repeats
exercise the daemon's content-key dedup and cost no simulation.

Every :data:`EPOCH_CAMPAIGNS` campaigns per thread, both threads wait
for their jobs and the round takes a reference sample on the daemon's
CPU (see ``speed.py``); the daemon is idle then, so the sample does not
compete with it.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from rounds import HERE, MAX_FAILURE_NOTES, clock, load_expected
from speed import SpeedLog, pin
from tracing import SCHEDULER_THREAD, Tracer, ledger, spec_id

#: the finite spec space the stream draws from (all of it is recorded
#: in expected/service.json, so any seed can be checked).
SPACE = [
    {"kind": "fig7-cell", "benchmark": bench, "n": n, "cores": cores,
     "warps": warps, "threads": threads}
    for bench, n, cores, warps, threads in itertools.product(
        ("vecadd", "transpose"), (64, 512), (1, 2, 3, 4),
        (2, 4, 8, 16), (2, 4, 8, 16))
]

#: daemon warm-up before the stream (outside SPACE, so no stream job
#: coalesces onto one): a no-op probe and one small cell per kernel.
WARMUP = [
    {"kind": "probe", "value": "warm-up", "sleep_s": 0.0, "boom": False,
     "nonce": ""},
    {"kind": "fig7-cell", "benchmark": "vecadd", "n": 32, "cores": 1,
     "warps": 2, "threads": 2},
    {"kind": "fig7-cell", "benchmark": "transpose", "n": 16, "cores": 1,
     "warps": 2, "threads": 2},
]

CLIENT_THREADS = 2
CAMPAIGN_MAX = 8
#: 9 x (1 + ... + 8) = 324 jobs per round: 256 specs and 68 repeats.
CAMPAIGN_CYCLES = 9
EPOCH_CAMPAIGNS = 4
POLL_S = 0.005

#: a round that has not finished by then is a failed round.
ROUND_TIMEOUT_S = 150.0


def make_stream(seed: int, round_index: int) -> list[list[list[dict]]]:
    """Epochs of per-thread campaign lists for one round of ``seed``."""
    rng = random.Random(f"{seed}/{round_index}")
    unique = SPACE[:]
    rng.shuffle(unique)
    sizes = list(range(1, CAMPAIGN_MAX + 1)) * CAMPAIGN_CYCLES
    rng.shuffle(sizes)
    total = sum(sizes)
    repeats = set(rng.sample(range(1, total), total - len(unique)))
    jobs: list[dict] = []
    fresh = iter(unique)
    for position in range(total):
        jobs.append(rng.choice(jobs) if position in repeats
                    else next(fresh))
    campaigns = []
    for size in sizes:
        campaigns.append(jobs[:size])
        jobs = jobs[size:]
    per_epoch = EPOCH_CAMPAIGNS * CLIENT_THREADS
    epochs = []
    for start in range(0, len(campaigns), per_epoch):
        chunk = campaigns[start:start + per_epoch]
        epochs.append([chunk[k::CLIENT_THREADS]
                       for k in range(CLIENT_THREADS)])
    return epochs


class JobRecord:
    __slots__ = ("spec", "job_id", "seq", "coalesced", "submitted", "done",
                 "state", "value")

    def __init__(self, spec: dict):
        self.spec = spec
        self.job_id = ""
        self.seq = 0
        self.coalesced = False
        self.submitted = self.done = 0.0
        self.state = "unsubmitted"
        self.value = None


def run_campaign(client, specs: list[dict], deadline: float
                 ) -> list[JobRecord]:
    """Submit ``specs``, then poll until each is finished. Polls go in
    daemon admission order (the sequence number in the job ID), which
    is the order the daemon's FIFO queue finishes them in, and stop at
    the first job still queued or running."""
    records = []
    for spec in specs:
        record = JobRecord(spec)
        record.submitted = clock()
        reply = client.submit(spec)
        record.job_id = reply["job_id"]
        record.seq = int(record.job_id[1:].split("-", 1)[0])
        record.coalesced = bool(reply.get("coalesced"))
        records.append(record)
    pending = sorted(records, key=lambda r: r.seq)
    while pending:
        while pending:
            record = pending[0]
            reply = client.results(record.job_id)
            if reply.get("state") not in ("done", "failed"):
                break
            record.done = clock()
            record.state = reply["state"]
            record.value = reply.get("value")
            pending.pop(0)
        if pending:
            if clock() > deadline:
                raise TimeoutError(f"job {pending[0].job_id} unfinished")
            time.sleep(POLL_S)
    return records


def _client_thread(client, campaigns, deadline, out, errors):
    try:
        for specs in campaigns:
            out.extend(run_campaign(client, specs, deadline))
    except Exception as exc:  # noqa: BLE001 - reported by the round
        errors.append(f"{type(exc).__name__}: {exc}")


def _wait_for_daemon(client, proc, deadline: float) -> dict:
    from repro.errors import ServiceError

    while True:
        try:
            return client.status()
        except ServiceError:
            if proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {proc.returncode}")
            if clock() > deadline:
                raise
            time.sleep(POLL_S)


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _median(values: list[float]) -> float:
    from statistics import median

    return median(values) if values else 0.0


def service_round(cfg: dict) -> dict:
    t_spawn = cfg["t_spawn"]
    from repro.harness.result_cache import code_fingerprint
    from repro.service import ServiceClient
    t_import = clock()
    deadline = t_spawn + ROUND_TIMEOUT_S
    tmp = Path(cfg["tmp"])
    state = tmp / "state"
    tracer = None
    daemon_dump = tmp / "daemon-trace.json"
    if cfg["trace"]:
        serve = [sys.executable, str(HERE / "serve_traced.py"),
                 str(daemon_dump)]
    else:
        serve = [sys.executable, "-m", "repro"]
    serve += ["serve", "--jobs", "1", "--state-dir", str(state)]
    speed = SpeedLog(cfg["cpu"], [tuple(cfg["pre_sample"])])
    pin(cfg["cpu"])  # the daemon inherits the work CPU
    with open(tmp / "daemon.log", "w") as log:
        proc = subprocess.Popen(serve, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
    pin(cfg["client_cpu"])
    notes: list[str] = []
    try:
        setup_client = ServiceClient(state, client_id="perfbench-setup",
                                     retries=0)
        _wait_for_daemon(setup_client, proc, deadline)
        t_daemon = clock()
        warm = run_campaign(setup_client, WARMUP, deadline)
        t_warm = clock()
        speed.sample()
        if cfg["trace"]:
            tracer = Tracer().install()

        clients = [ServiceClient(state, client_id=f"perfbench-{k}")
                   for k in range(CLIENT_THREADS)]
        records: list[JobRecord] = []
        for epoch in make_stream(cfg["seed"], cfg["round"]):
            outs = [[] for _ in clients]
            errors: list[str] = []
            threads = [threading.Thread(
                target=_client_thread,
                args=(client, campaigns, deadline, out, errors))
                for client, campaigns, out in zip(clients, epoch, outs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max(0.0, deadline - clock()) + 1.0)
            if errors or any(thread.is_alive() for thread in threads):
                raise RuntimeError(f"client threads failed: {errors}")
            for out in outs:
                records.extend(out)
            speed.sample()
        rss_mb = _peak_rss_mb(proc.pid)
        setup_client.drain()
        proc.wait(timeout=max(1.0, deadline - clock()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        log = (tmp / "daemon.log").read_text()[-2000:]
        raise RuntimeError(f"daemon exited with {proc.returncode}:\n{log}")

    expected = load_expected("service")
    failed = 0
    for record in warm + records:
        want = expected[spec_id(record.spec)]
        if record.state != "done" or record.value != want:
            failed += 1
            notes.append(f"service {spec_id(record.spec)}: "
                         f"{record.state} {record.value} != {want}")
    norm = speed.normalizer()
    start = min(r.submitted for r in records)
    end = max(r.done for r in records)
    result = {
        "setup_s": norm(t_spawn, t_warm),
        "setup": {"import_s": norm(t_spawn, t_import),
                  "daemon_s": norm(t_import, t_daemon),
                  "warmup_s": norm(t_daemon, t_warm)},
        "wall_s": norm(start, end),
        "wall_raw_s": end - start,
        "latencies_ms": [1e3 * norm(r.submitted, r.done) for r in records],
        "jobs": len(records),
        "dedup_share": sum(r.coalesced for r in records) / len(records),
        "attempted": len(warm) + len(records),
        "failed": failed,
        "notes": notes[:MAX_FAILURE_NOTES],
        "peak_rss_mb": rss_mb,
        "ref_ms": [1e3 * d for d in speed.durations()],
        "fingerprint": code_fingerprint(),
    }
    if tracer is not None:
        tracer.uninstall()
        result.update(_service_ledger(
            tracer.payload(), json.loads(daemon_dump.read_text()), norm,
            [(t_spawn, t_import, "setup.import"),
             (t_import, t_daemon, "setup.daemon"),
             (t_daemon, t_warm, "setup.warmup")],
            [(t_spawn, t_warm), (start, end)], records))
    return result


def _service_ledger(client: dict, daemon: dict, norm, setup_spans,
                    windows, records) -> dict:
    """Merge client and daemon spans into one ledger plus the
    service-layer latencies of the stream (warm-up excluded)."""
    by_thread: dict[tuple[int, int], list] = {}
    for layer, a, b, pid, tid, _ in daemon["spans"] + client["spans"]:
        by_thread.setdefault((pid, tid), []).append((a, b, layer))
    daemon_pid = daemon["spans"][0][3] if daemon["spans"] else -1
    threads = [(0, setup_spans)]
    for (pid, tid), spans in by_thread.items():
        if pid != daemon_pid:
            priority = 3
        elif daemon["threads"].get(f"{pid}:{tid}") == SCHEDULER_THREAD:
            priority = 1
        else:
            priority = 2
        threads.append((priority, spans))

    stream = {spec_id(r.spec) for r in records}
    started: dict[str, tuple[float, float]] = {}
    for layer, a, b, pid, tid, job in daemon["spans"]:
        if layer == "benchmarks" and job in stream and job not in started:
            started[job] = (a, b)
    accepted = daemon["accepted_at"]
    queued = [norm(accepted[job], a) for job, (a, b) in started.items()
              if job in accepted]
    running = [norm(a, b) for a, b in started.values()]
    counters = dict(daemon["counters"])
    for name, value in client["counters"].items():
        counters[name] = counters.get(name, 0) + value
    stream_start = windows[-1][0]
    requests = {kind: [norm(a, b) for a, b in spans if a >= stream_start]
                for kind, spans in client["requests"].items()}
    return {
        "ledger": ledger(threads, windows, norm),
        "ledger_wall_s": sum(norm(a, b) for a, b in windows),
        "counters": counters,
        "chrome": daemon["chrome"] + client["chrome"],
        "service": {
            "submit_ms": 1e3 * _median(requests["submit"]),
            "poll_ms": 1e3 * _median(requests["results"]),
            "queued_ms": 1e3 * _median(queued),
            "running_ms": 1e3 * _median(running),
        },
    }
