"""Synthesis-area model for Vortex hardware configurations (Table IV).

Unlike the HLS flow — where area depends on the *kernel* — the soft GPU
is synthesized once per hardware configuration and any kernel runs on it
(the paper's §III-D point). Area therefore scales with the configuration
(C cores, W warps/core, T threads/warp) through identifiable components:

* a fixed uncore (memory subsystem, AFU shell, NoC),
* per-core control,
* the warp information table (∝ C·W) — the paper: "augmenting the number
  of warp sizes leads to an expansion in the warp information table",
* execution lanes: ALU/FPU/LSU datapaths replicate per thread (∝ C·T) —
  "increasing the number of threads necessitates an expansion in ... the
  number of ALU lanes and FPU lanes",
* the register file, sized by warps × threads (∝ C·W·T).

Coefficients are least-squares calibrated to the five configurations the
paper synthesized (Table IV); the model reproduces every published cell
within ±1%. DSPs are dominated by the FPU lanes at ~28 DSPs per lane,
matching the exact 896 / 1,792 published counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hls.device import FPGADevice, STRATIX10_SX2800
from ..errors import SynthesisError
from .simx.config import VortexConfig

#: Component coefficients per resource: (uncore, core, warp-table C*W,
#: lane C*T, regfile C*W*T).
_ALUT = (54_316.0, 538.0, 1.21, 8_607.5, 19.29)
_FF = (131_271.0, 615.0, 3.83, 9_841.0, 61.36)
_BRAM = (350.4, 1.82, 0.0, 29.1, 0.02)
_DSP = (0.0, 1.74, 0.0, 27.89, 0.0)


def _eval(coef: tuple[float, ...], c: int, w: int, t: int) -> int:
    base, per_core, per_cw, per_ct, per_cwt = coef
    return round(
        base + per_core * c + per_cw * c * w + per_ct * c * t
        + per_cwt * c * w * t
    )


@dataclass(frozen=True)
class VortexAreaReport:
    config: VortexConfig
    aluts: int
    ffs: int
    brams: int
    dsps: int

    def as_row(self) -> dict[str, int]:
        return {
            "ALUTs": self.aluts,
            "FFs": self.ffs,
            "BRAMs": self.brams,
            "DSPs": self.dsps,
        }


def estimate(config: VortexConfig) -> VortexAreaReport:
    """Synthesis area of one Vortex hardware configuration."""
    c, w, t = config.cores, config.warps, config.threads
    return VortexAreaReport(
        config=config,
        aluts=_eval(_ALUT, c, w, t),
        ffs=_eval(_FF, c, w, t),
        brams=_eval(_BRAM, c, w, t),
        dsps=_eval(_DSP, c, w, t),
    )


def synthesize(
    config: VortexConfig, device: FPGADevice = STRATIX10_SX2800
) -> VortexAreaReport:
    """Area-check a configuration against a device, like Quartus would.

    Raises :class:`SynthesisError` when the configuration does not fit —
    the soft-GPU analog of the HLS capacity check, used by the ablation
    studies exploring the largest feasible configuration per board.
    """
    report = estimate(config)
    checks = (
        ("aluts", report.aluts, device.aluts),
        ("ffs", report.ffs, device.ffs),
        ("bram", report.brams, device.brams),
        ("dsps", report.dsps, device.dsps),
    )
    for reason, used, capacity in checks:
        if used > capacity:
            raise SynthesisError(
                reason=reason,
                detail=(
                    f"Vortex {config.label()} needs {used} {reason} but "
                    f"{device.name} provides {capacity}"
                ),
            )
    return report
