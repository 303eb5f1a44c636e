"""Crash-safe write-ahead journal for the experiment-service daemon.

An append-only file of JSON lines under the daemon's state directory.
Every accepted job is journalled (append + flush + ``fsync``) *before*
the client sees its ``ok`` reply, and every failure the moment the
engine streams it back. A completion is not journalled: it is the
job's durable result-cache entry, which the engine fsyncs before it
reports the job. So a ``kill -9`` at any instant loses at most work,
never bookkeeping: ``serve --resume`` replays the journal, serves every
accepted job whose value is in the cache, and re-runs exactly the
others.

Records are small dicts with a ``t`` tag::

    {"t": "accepted", "id": ..., "spec": {...}, "key": ...,
     "client": ...}
    {"t": "failed", "id": ..., "failure": {...PointFailure payload...}}

Torn tails are expected: a crash mid-append leaves a partial last line,
which :meth:`Journal.replay` skips (and counts) instead of refusing to
start. Compaction rewrites the live records with
:func:`repro.durable.atomic_write` (file and directory fsynced), so the
journal is never observed in a half-rewritten state and cannot grow
without bound.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..durable import atomic_write, fsync_dir

__all__ = ["Journal"]


class Journal:
    """Append-mostly JSON-lines journal with atomic compaction."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        #: appends since the last compaction (compaction trigger).
        self.appended = 0
        #: torn/corrupt lines skipped by the last :meth:`replay`.
        self.skipped = 0

    # -- writing -----------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict) -> None:
        """Durably append one record: write, flush, ``fsync``."""
        fh = self._handle()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------

    def replay(self) -> list[dict]:
        """Every intact record, in append order.

        Lines that fail to parse (the torn tail of a crashed append —
        or genuine corruption) are skipped and counted in
        :attr:`skipped`, never fatal: a daemon that survived a crash
        must not be killed by the crash's own debris.
        """
        self.skipped = 0
        records: list[dict] = []
        try:
            with open(self.path, "r", encoding="utf-8",
                      errors="replace") as fh:
                for line in fh:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        self.skipped += 1
                        continue
                    if isinstance(record, dict):
                        records.append(record)
                    else:
                        self.skipped += 1
        except OSError:
            return []
        return records

    # -- compaction --------------------------------------------------------

    def compact(self, records: list[dict]) -> None:
        """Atomically replace the journal with ``records``.

        Same crash discipline as an append: the new content is fsynced
        in a temp file first, then renamed over the journal, then the
        directory entry is fsynced — a crash at any point leaves either
        the old journal or the new one, never a hybrid.
        """
        self.close()
        lines = "".join(json.dumps(record, separators=(",", ":")) + "\n"
                        for record in records)
        atomic_write(self.path, lines.encode("utf-8"), fsync=True)
        fsync_dir(self.path.parent)
        self.appended = 0
