"""Multi-process contention and crash-hygiene tests for ResultCache.

The cache is the shared substrate of every robustness feature in this
repo — parallel engine workers, the experiment-service daemon, and
resumed campaigns all read and write one directory concurrently. These
tests hammer a single cache root from several *processes* at once
(mixed get/put/clear) and assert the atomic-rename discipline holds:
no worker ever crashes, no reader ever observes a torn JSON entry, and
no orphaned temp file survives a vacuum. The failed-write hygiene case
runs over every writer that commits through ``repro.durable``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.calibrate.artifact import CalibrationArtifact
from repro.harness import ResultCache
from repro.harness.result_cache import MISS
from repro.hls.perf import HLSModelParams
from repro.service.journal import Journal
from repro.vortex.analytical import VortexModelParams
from repro.vortex.simx.checkpoint import CheckpointStore

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each hammer process loops over a small key space doing puts, gets,
# and the occasional clear, asserting every get returns either MISS or
# a *complete* entry (torn JSON would raise inside get and be counted
# as a miss — so the stronger check is re-parsing the files directly).
_HAMMER = """
import json, os, random, sys, time
sys.path.insert(0, {src!r})
from repro.harness import ResultCache
from repro.harness.result_cache import MISS

root, seed, deadline = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
rng = random.Random(seed)
cache = ResultCache(root, fingerprint="contention")
keys = [cache.key(point=i) for i in range(8)]
ops = 0
while time.time() < deadline:
    key = rng.choice(keys)
    roll = rng.random()
    if roll < 0.45:
        cache.put(key, {{"writer": seed, "ops": ops,
                         "payload": "x" * rng.randrange(1, 2048)}})
    elif roll < 0.9:
        value = cache.get(key)
        if value is not MISS:
            # a committed entry is always complete and well-shaped
            assert set(value) == {{"writer", "ops", "payload"}}, value
    else:
        cache.clear()
    ops += 1
print(ops)
"""


@pytest.mark.slow
def test_multiprocess_hammer_never_tears(tmp_path):
    root = tmp_path / "cache"
    deadline = time.time() + 3.0
    script = _HAMMER.format(src=REPO_SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(root), str(seed),
             str(deadline)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in range(4)
    ]
    total_ops = 0
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"hammer crashed:\n{err}"
        total_ops += int(out.strip())
    assert total_ops > 0
    # every surviving entry parses — a torn write would be half a JSON
    # document under the final name, which atomic rename forbids
    for entry in root.glob("*/*.json"):
        json.loads(entry.read_text())
    # no temp files outlive the melee (crashless writers always clean
    # up; vacuum(0) would reap a kill -9's leavings)
    cache = ResultCache(root, fingerprint="contention")
    assert cache.vacuum(0.0) == 0
    assert len(cache) == sum(1 for _ in root.glob("*/*.json"))


def test_put_get_roundtrip_and_len(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="t")
    key = cache.key(point=1)
    assert cache.get(key) is MISS
    cache.put(key, {"v": 1})
    assert cache.get(key) == {"v": 1}
    assert len(cache) == 1


def test_durable_put_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="t",
                        durable=True)
    key = cache.key(point=2)
    cache.put(key, {"v": 2})
    assert cache.get(key) == {"v": 2}


class TestVacuum:
    def _orphan(self, root, name, age_s):
        sub = root / "ab"
        sub.mkdir(parents=True, exist_ok=True)
        tmp = sub / name
        tmp.write_text("half-written garbag")
        old = time.time() - age_s
        os.utime(tmp, (old, old))
        return tmp

    def test_vacuum_reaps_only_old_enough(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root, fingerprint="t")
        stale = self._orphan(root, "stale.tmp", age_s=7200)
        fresh = self._orphan(root, "fresh.tmp", age_s=0)
        assert cache.vacuum(3600.0) == 1
        assert not stale.exists() and fresh.exists()
        assert cache.vacuum(0.0) == 1
        assert not fresh.exists()

    def test_constructor_sweeps_stale_orphans(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        stale = self._orphan(root, "stale.tmp", age_s=7200)
        fresh = self._orphan(root, "fresh.tmp", age_s=0)
        ResultCache(root, fingerprint="t")
        assert not stale.exists(), "constructor must reap stale tmp"
        assert fresh.exists(), "constructor must spare live writers"

    def test_vacuum_ignores_committed_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="t")
        key = cache.key(point=3)
        cache.put(key, {"v": 3})
        assert cache.vacuum(0.0) == 0
        assert cache.get(key) == {"v": 3}


# Every writer that commits through repro.durable.atomic_write, as
# root -> (write(version), committed file).
def _cache_put(root):
    cache = ResultCache(root, fingerprint="t")
    key = cache.key(point=4)
    return (lambda v: cache.put(key, {"v": v}),
            root / key[:2] / f"{key}.json")


def _checkpoint_save(root):
    store = CheckpointStore(root, fingerprint="t")
    return lambda v: store.save("p", {"now": v}), store.path("p")


def _journal_compact(root):
    journal = Journal(root / "journal.jsonl")
    return (lambda v: journal.compact([{"t": "done", "id": str(v)}]),
            journal.path)


def _calibration_save(root):
    def save(v):
        CalibrationArtifact(fingerprint=str(v), vortex=VortexModelParams(),
                            hls=HLSModelParams()).save(root / "cal.json")
    return save, root / "cal.json"


_WRITERS = {"cache-put": _cache_put, "checkpoint-save": _checkpoint_save,
            "journal-compact": _journal_compact,
            "calibration-save": _calibration_save}


class TestPutFailureHygiene:
    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_failed_replace_leaves_no_tmp(self, tmp_path, monkeypatch,
                                          writer):
        root = tmp_path / "w"
        write, committed = _WRITERS[writer](root)
        write(1)
        before = committed.read_bytes()

        def boom(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write(2)
        monkeypatch.undo()
        assert not list(root.rglob("*.tmp"))
        assert committed.read_bytes() == before

    def test_unencodable_value_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="t")
        with pytest.raises(TypeError):
            cache.put(cache.key(point=5), {"v": object()})
        if (tmp_path / "cache").is_dir():
            assert not list((tmp_path / "cache").glob("*/*.tmp"))

    def test_clear_does_not_rob_live_writers(self, tmp_path):
        """clear() removes entries but never temp files — a concurrent
        put mid-flight must still be able to commit."""
        root = tmp_path / "cache"
        cache = ResultCache(root, fingerprint="t")
        key = cache.key(point=6)
        cache.put(key, {"v": 6})
        live_tmp = root / key[:2] / "inflight.tmp"
        live_tmp.write_text('{"v": "partial"')
        cache.clear()
        assert cache.get(key) is MISS
        assert live_tmp.exists()
