"""The code fingerprint: one SHA-256 over the ``repro`` source.

Result-cache entries and SimX snapshots each record the fingerprint of
the code that produced them, and a reader never hands back one made by
other code. This module imports nothing
from ``repro``, so any layer can key on the fingerprint without pulling
in the harness.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

__all__ = ["code_fingerprint"]


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every ``*.py`` file of the installed ``repro`` package.

    Computed once per process; any source change (a new timing model, a
    cache bugfix) yields a new fingerprint and silently invalidates all
    previously cached results.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
