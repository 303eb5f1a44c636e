"""Import closures of the entry points that start without the simulator.

Each closure case runs in a fresh interpreter and reads ``sys.modules``:
a service client, the result cache and the CLI's parser load no numpy
and none of the simulator's packages, a client command loads only the
wire protocol, and a daemon serving Fig. 7 cells loads neither the
calibration nor the DSE, and the Vortex analytical model loads the
HLS flow's LSU classifier and no other HLS module. ``repro.harness``,
``repro.service`` and ``repro.hls`` are lazy namespaces; every name they
exported when they imported all their submodules still resolves, to the
same object.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: packages a client, a result-cache reader or the parser has no use for.
SIMULATOR = ("numpy", "repro.vortex", "repro.ocl", "repro.hls")

#: every public name of the lazy packages, by its defining module.
PUBLIC = {
    "repro.harness": {
        "repro.harness.area_tables": (
            "PAPER_TABLE3", "PAPER_TABLE4", "Table3Report", "Table4Report",
            "run_table3", "run_table4"),
        "repro.harness.case_study": (
            "PAPER_TABLE2", "CaseStudyReport", "run_auto_cse_ablation",
            "run_case_study"),
        "repro.errors": ("ExperimentAborted", "PointFailure"),
        "repro.harness.coverage": (
            "PAPER_TABLE1", "CoverageReport", "run_coverage"),
        "repro.harness.dse": (
            "Candidate", "DSEResult", "explore_design_space",
            "launch_rejection", "pareto_frontier", "run_dse",
            "workload_rejection"),
        "repro.harness.engine": (
            "EngineStats", "ExperimentEngine", "close_all_engines",
            "resolve_jobs"),
        "repro.harness.faults": (
            "FAULT_PLAN_ENV", "FAULT_STATE_ENV", "FaultInjected",
            "FaultSpec", "corrupt_cache_entry", "maybe_fault",
            "parse_plan"),
        "repro.harness.profile": (
            "PROFILE_BACKENDS", "make_profiled_backend", "run_profile",
            "run_profile_cached"),
        "repro.harness.golden": (
            "GoldenPoint", "GoldenReport", "golden_points", "run_golden"),
        "repro.harness.result_cache": ("ResultCache", "code_fingerprint"),
        "repro.harness.sweep": (
            "PAPER_FIG7", "SweepResult", "render_comparison", "run_sweep"),
        "repro.harness.tables": ("render_heatmap", "render_table"),
    },
    "repro.service": {
        "repro.service.client": ("ServiceClient", "resolve_state_dir"),
        "repro.service.daemon": ("ExperimentDaemon",),
        "repro.service.jobs": (
            "JOB_KINDS", "execute_job", "job_key", "validate_job"),
        "repro.service.journal": ("Journal",),
        "repro.service.protocol": (
            "CODES", "DAEMON_INFO_NAME", "DEFAULT_STATE_DIR", "OPS",
            "SERVICE_DIR_ENV", "ProtocolError"),
    },
    "repro.hls": {
        "repro.hls.area": ("AreaReport", "estimate", "estimate_program"),
        "repro.hls.compiler": ("HLSBackend", "HLSCompiledKernel", "aoc"),
        "repro.hls.device": (
            "DDR4", "DEVICES", "HBM2", "STRATIX10_MX2100",
            "STRATIX10_SX2800", "FPGADevice", "MemorySystem", "get_device"),
        "repro.hls.lsu": (
            "BURST_COALESCED_UNITS", "AffineIndexAnalysis", "LSUKind",
            "LSUSite", "classify_kernel"),
        "repro.hls.perf": ("PipelineEstimate", "estimate_cycles"),
        "repro.hls.report": (
            "format_breakdown", "format_table", "format_utilization"),
    },
}


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=REPO_SRC), check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def _within(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


@pytest.mark.parametrize("code", [
    "import repro.service.client",
    "import repro.harness.result_cache",
    "from repro.harness.result_cache import code_fingerprint\n"
    "from repro.service import ServiceClient",
    "from repro.__main__ import _build_parser\n"
    "_build_parser().format_help()",
])
def test_client_side_loads_no_simulator(code):
    assert _within(_loaded(code), SIMULATOR) == []


@pytest.mark.parametrize("argv", [
    ["submit", '{"kind": "probe"}'],
    ["status"],
    ["results", "j000001-aabbccddee"],
    ["drain"],
])
def test_client_commands_load_only_the_protocol(argv, tmp_path):
    """A client command against a state dir no daemon serves fails with
    its typed error, having loaded the client, the protocol and the
    errors and no other module of repro."""
    argv += ["--state-dir", str(tmp_path), "--service-retries", "0"]
    loaded = _loaded("from repro.__main__ import main\n"
                     f"assert main({argv!r}) == 1")
    assert _within(loaded, ("repro",)) == [
        "repro", "repro.__main__", "repro.errors", "repro.harness",
        "repro.harness.defaults", "repro.lazy", "repro.service",
        "repro.service.client", "repro.service.protocol"]
    assert "numpy" not in loaded


def test_daemon_loads_no_calibration_or_dse():
    loaded = _loaded("import repro.service.daemon")
    assert "repro.service.jobs" in loaded  # the fig7-cell path is loaded
    assert _within(loaded, ("repro.calibrate", "repro.harness.dse")) == []


def test_analytical_model_loads_only_the_lsu_classifier():
    """The model's coalescing input comes from the HLS classifier, a
    static import that a closure of the model names."""
    loaded = _loaded("import repro.vortex.analytical")
    assert _within(loaded, ("repro.hls",)) == ["repro.hls", "repro.hls.lsu"]


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_public_names_resolve_to_their_defining_module(package):
    module = importlib.import_module(package)
    exports = PUBLIC[package]
    assert sorted(module.__all__) == sorted(
        name for names in exports.values() for name in names)
    for origin, names in exports.items():
        for name in names:
            assert getattr(module, name) is getattr(
                importlib.import_module(origin), name), name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
