"""Versioned, fingerprint-keyed persistence of calibrated model fits.

A calibration is only meaningful for the code that produced its ground
truth: if the simulator or the analytical model changes, a stale fit
would silently skew every screening decision built on it. The artifact
therefore records the repro *code fingerprint* (the same SHA-256 the
result cache keys on) and :func:`load_calibration` refuses — by
default — to hand back a fit whose fingerprint does not match the
running code.

The JSON layout (``schema`` 2)::

    {
      "schema": 2,
      "fingerprint": "<code_fingerprint() at fit time>",
      "vortex": { ...VortexModelParams... },
      "error_bounds": {
        "vecadd": {"max_rel_err": ..., "mean_rel_err": ..., "points": N},
        ...
      },
      "meta": {"benchmarks": [...], "n": ..., ...}
    }

``error_bounds`` are *measured on the calibration cells*, per
benchmark. The hierarchical DSE prunes its frontier with them, but
held-out cells can exceed them, so the prune is a heuristic, not a
guarantee (see :func:`repro.harness.dse.explore_design_space`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import atomic_write
from ..errors import CalibrationError
from ..fingerprint import code_fingerprint
from ..vortex.analytical import VortexModelParams

__all__ = [
    "CALIBRATION_SCHEMA",
    "CalibrationArtifact",
    "load_calibration",
]

CALIBRATION_SCHEMA = 2


@dataclass
class CalibrationArtifact:
    """One complete fit: model parameters plus measured error bounds."""

    fingerprint: str
    vortex: VortexModelParams
    #: ``{bench: {"max_rel_err", "mean_rel_err", "points"}}``
    error_bounds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    schema: int = CALIBRATION_SCHEMA

    def bound(self, benchmark: str | None = None) -> float:
        """The stated max relative error: for one benchmark, or the
        worst across the calibration set when ``benchmark`` is ``None``
        (also the fallback for benchmarks outside the set)."""
        if benchmark in self.error_bounds:
            return float(self.error_bounds[benchmark]["max_rel_err"])
        if not self.error_bounds:
            raise CalibrationError("artifact carries no error bounds")
        return max(float(b["max_rel_err"])
                   for b in self.error_bounds.values())

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "vortex": self.vortex.to_payload(),
            "error_bounds": self.error_bounds,
            "meta": self.meta,
        }

    @staticmethod
    def from_payload(payload: dict) -> "CalibrationArtifact":
        try:
            schema = payload["schema"]
            if schema != CALIBRATION_SCHEMA:
                raise CalibrationError(
                    f"calibration schema {schema!r} is not supported "
                    f"(this build reads schema {CALIBRATION_SCHEMA})")
            return CalibrationArtifact(
                fingerprint=str(payload["fingerprint"]),
                vortex=VortexModelParams.from_payload(payload["vortex"]),
                error_bounds=dict(payload.get("error_bounds", {})),
                meta=dict(payload.get("meta", {})),
                schema=schema,
            )
        except CalibrationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(
                f"malformed calibration payload: {exc!r}") from exc

    def save(self, path: str | Path) -> Path:
        """Write the artifact with :func:`repro.durable.atomic_write`."""
        path = Path(path)
        text = json.dumps(self.to_payload(), indent=1, sort_keys=True)
        atomic_write(path, (text + "\n").encode(), fsync=False)
        return path


def load_calibration(path: str | Path) -> CalibrationArtifact:
    """Load a saved fit, refusing one fitted against different code
    (re-calibrate on mismatch)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise CalibrationError(
            f"no calibration artifact at {path} "
            f"(run `python -m repro calibrate` first)") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(
            f"unreadable calibration artifact {path}: {exc}") from exc
    artifact = CalibrationArtifact.from_payload(payload)
    if artifact.fingerprint != code_fingerprint():
        raise CalibrationError(
            f"calibration artifact {path} was fitted against different "
            f"code (fingerprint {artifact.fingerprint[:12]}… vs current "
            f"{code_fingerprint()[:12]}…) — re-run "
            f"`python -m repro calibrate`")
    return artifact
