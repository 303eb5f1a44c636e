"""Content-addressed on-disk memoisation for experiment points.

Every experiment the harness runs — one cell of the Figure 7 sweep, one
Table I coverage row, one profiled benchmark run — is a deterministic
function of (benchmark, configuration, problem size, seed) *and of the
simulator code itself*. :class:`ResultCache` memoises such points on
disk keyed by a SHA-256 digest over a canonical JSON encoding of those
inputs plus a fingerprint of every ``repro`` source file, so

* repeated invocations of ``table1``/``fig7``/``profile`` return
  instantly from the cache, and
* any edit to the package source changes the fingerprint and therefore
  every key — stale entries are never *returned*; they are simply
  unreachable (and cheap to garbage-collect by deleting the directory).

Entries are plain JSON files named by their key under two-level fan-out
directories (``ab/ab12....json``), written with
:func:`repro.durable.atomic_write` so concurrent writers — the parallel
experiment engine runs points from several worker processes — can never
expose a torn entry. Corrupt or unreadable entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..durable import TMP_GC_AGE_S, atomic_write, sweep_tmp
from ..fingerprint import code_fingerprint

__all__ = ["MISS", "ResultCache", "code_fingerprint"]

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS = object()


def _canonical(value: Any) -> Any:
    """Reduce key parts to canonical JSON-able primitives.

    Dataclasses (``VortexConfig`` and friends) become sorted dicts,
    tuples become lists, so logically-equal inputs hash identically.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class ResultCache:
    """On-disk memo cache for experiment points.

    Parameters
    ----------
    root:
        Directory to store entries in (created on first write).
    fingerprint:
        Code fingerprint mixed into every key; defaults to
        :func:`code_fingerprint`. Tests override it to simulate source
        changes.
    durable:
        ``True`` fsyncs every entry to disk before the atomic rename —
        a ``kill -9`` can then never lose a committed entry (the
        experiment-service daemon turns this on; the default ``False``
        keeps batch runs fast and still crash-*consistent*, just not
        crash-*durable* for the very last writes).

    A writer killed mid-``put`` leaves an orphaned temp file behind;
    :meth:`vacuum` garbage-collects those, and construction sweeps any
    orphan older than :data:`~repro.durable.TMP_GC_AGE_S` (old enough
    that no live writer can still own it).
    """

    def __init__(self, root: str | Path, fingerprint: str | None = None,
                 durable: bool = False):
        self.root = Path(root)
        self.fingerprint = (code_fingerprint() if fingerprint is None
                            else fingerprint)
        self.durable = durable
        self.hits = 0
        self.misses = 0
        self.vacuum(TMP_GC_AGE_S)

    # -- keys --------------------------------------------------------------

    def key(self, **parts: Any) -> str:
        """Content-addressed key for one experiment point.

        ``parts`` name the inputs that determine the result (benchmark
        name, config, problem size, seed, ...); the code fingerprint is
        mixed in automatically.
        """
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "parts": _canonical(parts)},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- storage -----------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached JSON value for ``key``, or :data:`MISS`."""
        path = self._path(key)
        try:
            with path.open("r") as fh:
                value = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Atomically store a JSON-serialisable ``value`` under ``key``."""
        atomic_write(self._path(key), json.dumps(value).encode(),
                     fsync=self.durable)

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        for entry in self.root.glob("*/*.json"):
            try:
                entry.unlink()
            except OSError:
                pass

    def vacuum(self, max_age_s: float = 0.0) -> int:
        """Reap orphaned temp files left by crashed writers.

        Only temp files whose mtime is at least ``max_age_s`` seconds
        old are removed (``0`` reaps everything — safe when the caller
        knows no writer is live, e.g. the service daemon at startup).
        Returns the number of files removed.
        """
        return sweep_tmp(self.root, "*/*", max_age_s)
