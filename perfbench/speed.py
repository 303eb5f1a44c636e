"""Host-speed reference: samples of a fixed Python loop taken in a round.

The host this benchmark was written on is a 2-vCPU guest whose CPU
speed drifts by tens of percent within a minute: the same SimX cell
took 125-266 ms inside one 60 s window, and ten back-to-back Fig. 7
runs measured 5.7-10.6 s for the same round. Medians over longer runs
cannot remove a drift that slow. Most of it is common to all
interpreter-bound work on the same CPU, so each round times the fixed
:func:`_reference_loop` many times on the CPU that does the work (after
set-up, between points, between service epochs) and scales its host
times by ``(NOMINAL_S / median sample) ** SENSITIVITY``.

The loop reacts more strongly to the drift than the workloads do: the
log-log slope of a round's host time against its median sample was
0.56-0.72 for fig7, 0.62-0.85 for table1 and 0.55-0.71 for service
over three sets of ten runs, and full scaling (exponent 1) made rounds
on a fast stretch come out up to 19% slow. Scaling by the round's
median sample also beat scaling each point by its two neighbouring
samples: ten fig7 runs had 5.1% interquartile spread with the
latter and 2.7% when their rounds were rescaled by the former, since
one 15 ms sample is noisy.

The reference loop does not touch ``repro``, so a change to the program
moves normalized times as it moves raw ones; only the machine's speed
cancels. Reference samples are paused clock: time spent inside them
counts nowhere.
"""

from __future__ import annotations

import os
import statistics
import time

#: the reference loop's nominal duration; normalized times are host
#: seconds at the speed where one sample takes exactly this long.
NOMINAL_S = 0.015

#: how strongly the workloads' host time follows the reference loop
#: (measured slopes in the module docstring).
SENSITIVITY = 0.8

_LOOP_ITERATIONS = 60_000


def _reference_loop() -> int:
    """Interpreter-bound work with the simulators' mix: list indexing,
    dict get/set, small-int arithmetic, attribute loads and calls."""
    lanes = list(range(64))
    table: dict[int, int] = {}
    acc = 0
    mask = 0xFFFF
    get = table.get
    for i in range(_LOOP_ITERATIONS):
        lane = i & 63
        acc = (acc + lanes[lane] * i) & mask
        table[lane] = acc
        acc ^= get(lane ^ 1, 0)
        lanes[lane] = acc >> 3
    return acc


def pin(cpu: int | None) -> None:
    """Pin the calling thread to ``cpu`` (no-op for ``None``)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def reference_sample(cpu: int | None = None) -> tuple[float, float]:
    """Run one reference sample on ``cpu``; returns its (start, end)
    on the ``time.perf_counter`` clock (CLOCK_MONOTONIC on Linux, so
    comparable across processes). The thread's affinity is restored."""
    previous = os.sched_getaffinity(0)
    pin(cpu)
    try:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
    finally:
        os.sched_setaffinity(0, previous)
    return start, end


class SpeedLog:
    """Reference samples of one round and the normalized clock they
    define (see the module docstring)."""

    def __init__(self, cpu: int | None = None,
                 samples: list[tuple[float, float]] | None = None):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = list(samples or [])

    def sample(self) -> None:
        self.samples.append(reference_sample(self.cpu))

    def durations(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def normalizer(self):
        """A function ``(a, b) -> normalized seconds`` for this round:
        host time in ``[a, b]`` outside reference samples, scaled by
        ``(NOMINAL_S / median sample) ** SENSITIVITY``."""
        factor = (NOMINAL_S
                  / statistics.median(self.durations())) ** SENSITIVITY
        samples = sorted(self.samples)

        def normalized(a: float, b: float) -> float:
            if b <= a:
                return 0.0
            paused = sum(max(0.0, min(b, hi) - max(a, lo))
                         for lo, hi in samples if lo < b and hi > a)
            return (b - a - paused) * factor

        return normalized
