"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.harness.coverage` — Table I (benchmark coverage),
* :mod:`repro.harness.case_study` — Table II / Fig. 6 (backprop O1/O2),
* :mod:`repro.harness.area_tables` — Tables III and IV (area reports),
* :mod:`repro.harness.sweep` — Figure 7 (warp/thread sweep on SimX),
* :mod:`repro.harness.profile` — unified per-benchmark profiling
  (``python -m repro profile``).

The package is a lazy namespace (:mod:`repro.lazy`): ``from
repro.harness import run_sweep`` imports :mod:`repro.harness.sweep` on
first use, and importing one submodule, such as
:mod:`repro.harness.result_cache`, runs none of its siblings.
"""

from ..lazy import attach as _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    ".area_tables": ("PAPER_TABLE3", "PAPER_TABLE4", "Table3Report",
                     "Table4Report", "run_table3", "run_table4"),
    ".case_study": ("PAPER_TABLE2", "CaseStudyReport",
                    "run_auto_cse_ablation", "run_case_study"),
    "..errors": ("ExperimentAborted", "PointFailure"),
    ".coverage": ("PAPER_TABLE1", "CoverageReport", "run_coverage"),
    ".dse": ("Candidate", "DSEResult", "explore_design_space",
             "launch_rejection", "pareto_frontier", "run_dse",
             "workload_rejection"),
    ".engine": ("EngineStats", "ExperimentEngine", "close_all_engines",
                "resolve_jobs"),
    ".faults": ("FAULT_PLAN_ENV", "FAULT_STATE_ENV", "FaultInjected",
                "FaultSpec", "corrupt_cache_entry", "maybe_fault",
                "parse_plan"),
    ".profile": ("PROFILE_BACKENDS", "make_profiled_backend", "run_profile",
                 "run_profile_cached"),
    ".golden": ("GoldenPoint", "GoldenReport", "golden_points",
                "run_golden"),
    ".result_cache": ("ResultCache", "code_fingerprint"),
    ".sweep": ("PAPER_FIG7", "SweepResult", "render_comparison",
               "run_sweep"),
    ".tables": ("render_heatmap", "render_table"),
})
