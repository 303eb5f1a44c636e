"""Crash-safe file writes: the one place ``repro`` decides how.

Every file another process or a restarted daemon may read while it is
rewritten goes through :func:`atomic_write`, so readers see the old file
or the new one, never a mix. Whether the temp file is fsynced first is
the caller's policy: only the caller knows what a lost write costs
(README, "Durable writes", tabulates each writer's choice). Temp files
stranded by a hard kill are reaped by :func:`sweep_tmp`.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from pathlib import Path

__all__ = ["TMP_GC_AGE_S", "atomic_write", "claim", "fsync_dir", "sweep_tmp"]

#: Age (seconds) past which an orphaned temp file is fair game for a
#: sweep that may race live writers — generous, so a slow writer is
#: never robbed of its temp file mid-write.
TMP_GC_AGE_S = 3600.0

_TMP_SUFFIX = ".tmp"


def atomic_write(path: str | os.PathLike, data: bytes, *,
                 fsync: bool) -> None:
    """Replace ``path`` with ``data``, creating its directory if needed.

    ``data`` goes to a uniquely named ``*.tmp`` file beside ``path``,
    which ``os.replace`` then renames over it. ``fsync`` flushes the temp
    file to disk first, so a power cut cannot lose the new content once
    this returns. The temp file is unlinked on every path that does not
    commit it (full disk, failed rename, interrupt).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=_TMP_SUFFIX)
    try:
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def fsync_dir(path: str | os.PathLike) -> None:
    """Best-effort fsync of a directory (persists renames/creates)."""
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def sweep_tmp(root: str | os.PathLike, pattern: str,
              max_age_s: float) -> int:
    """Unlink :func:`atomic_write` temp files at least ``max_age_s`` old.

    ``pattern`` globs the temp files' names below ``root`` without their
    suffix: ``"*"`` for ``root`` itself, ``"*/*"`` one level down. An age
    of ``0`` reaps every temp file and is safe only when no writer can
    be live. Returns how many files were removed.
    """
    cutoff = time.time() - max_age_s
    try:
        candidates = list(Path(root).glob(pattern + _TMP_SUFFIX))
    except OSError:
        return 0
    removed = 0
    for tmp in candidates:
        with contextlib.suppress(OSError):
            if tmp.stat().st_mtime <= cutoff:
                tmp.unlink()
                removed += 1
    return removed


def claim(path: str | os.PathLike) -> bool:
    """Create ``path``; ``True`` only for the one caller that created it
    (``O_CREAT|O_EXCL`` is atomic across processes)."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True
