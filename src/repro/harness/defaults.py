"""Request defaults of the Figure 7 sweep, the DSE and the calibration.

The CLI's parser and the service's job validation read these without
running any experiment, so this module imports nothing: neither starts
the simulator to print ``--help`` or to check a job spec.
:mod:`repro.harness.sweep` and :mod:`repro.harness.dse` read them from
here.
"""

#: the benchmarks a Figure 7 cell runs.
FIG7_BENCHMARKS = ("vecadd", "transpose")
#: the default problem size of a Figure 7 cell, a DSE and a calibration.
FIG7_N = 4096
#: Figure 7's warp and thread axes.
WARP_SIZES = (2, 4, 8, 16)
THREAD_SIZES = (2, 4, 8, 16)

#: the default screen: one to eight cores over Figure 7's (W, T) axes.
CORE_COUNTS = (1, 2, 4, 8)
#: :func:`~repro.harness.dse.run_dse`'s ``confirm`` modes: SimX-confirm
#: the frontier, or stop at the screen.
CONFIRM_MODES = ("frontier", "none")
#: the most frontier points :func:`~repro.harness.dse.run_dse`
#: SimX-confirms by default.
FRONTIER_CAP = 8
