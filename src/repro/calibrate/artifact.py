"""Versioned, fingerprint-keyed persistence of calibrated model fits.

A calibration is only meaningful for the code that produced its ground
truth: if the simulator or the analytical model changes, a stale fit
would silently skew every screening decision built on it. The artifact
therefore records the repro *code fingerprint* (the same SHA-256 the
result cache keys on) and :func:`load_calibration` refuses — by
default — to hand back a fit whose fingerprint does not match the
running code.

The JSON layout (``schema`` 1)::

    {
      "schema": 1,
      "fingerprint": "<code_fingerprint() at fit time>",
      "vortex": { ...VortexModelParams... },
      "hls": { ...HLSModelParams... },
      "error_bounds": {
        "vortex": {"vecadd": {"max_rel_err": ..., "mean_rel_err": ...,
                              "points": N}, ...},
        "hls": {...}
      },
      "meta": {"benchmarks": [...], "n": ..., ...}
    }

``error_bounds`` are *measured on the calibration set*, per benchmark
and per flow — they are what downstream consumers (the hierarchical
DSE's frontier pruning, the regression tests) treat as the model's
stated tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import atomic_write
from ..errors import CalibrationError
from ..harness.result_cache import code_fingerprint
from ..hls.perf import HLSModelParams
from ..vortex.analytical import VortexModelParams

__all__ = [
    "CALIBRATION_SCHEMA",
    "CalibrationArtifact",
    "load_calibration",
]

CALIBRATION_SCHEMA = 1


@dataclass
class CalibrationArtifact:
    """One complete fit: parameters per flow plus measured error bounds."""

    fingerprint: str
    vortex: VortexModelParams
    hls: HLSModelParams
    #: ``{"vortex": {bench: {...}}, "hls": {bench: {...}}}``
    error_bounds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    schema: int = CALIBRATION_SCHEMA

    def bound(self, flow: str, benchmark: str | None = None) -> float:
        """The stated max relative error of ``flow`` (``"vortex"`` or
        ``"hls"``): for one benchmark, or the worst across the
        calibration set when ``benchmark`` is ``None`` (also the
        fallback for benchmarks outside the set)."""
        per_bench = self.error_bounds.get(flow, {})
        if benchmark is not None and benchmark in per_bench:
            return float(per_bench[benchmark]["max_rel_err"])
        if not per_bench:
            raise CalibrationError(
                f"artifact carries no error bounds for flow {flow!r}")
        return max(float(b["max_rel_err"]) for b in per_bench.values())

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "vortex": self.vortex.to_payload(),
            "hls": self.hls.to_payload(),
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
                hls=HLSModelParams.from_payload(payload["hls"]),
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


def load_calibration(path: str | Path,
                     strict_fingerprint: bool = True
                     ) -> CalibrationArtifact:
    """Load a saved fit, verifying it matches the running code.

    ``strict_fingerprint=False`` returns a stale artifact anyway (the
    CLI's escape hatch for inspecting old fits); everything else should
    keep the default and re-calibrate on mismatch.
    """
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
    if strict_fingerprint and artifact.fingerprint != code_fingerprint():
        raise CalibrationError(
            f"calibration artifact {path} was fitted against different "
            f"code (fingerprint {artifact.fingerprint[:12]}… vs current "
            f"{code_fingerprint()[:12]}…) — re-run "
            f"`python -m repro calibrate`")
    return artifact
