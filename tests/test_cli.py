"""Smoke tests for every ``python -m repro`` subcommand.

Each test asserts exit code 0 and that the output looks like the
artifact it claims to regenerate — not the exact numbers (other tests
pin those), just that the CLI wiring stays sound.
"""

import json

import pytest

from repro.__main__ import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Vortex" in out and "/28" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "auto-CSE ablation" in out


def test_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Vecadd" in out


def test_table4(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "max relative error vs paper" in out


@pytest.mark.slow
def test_fig7(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "vecadd" in out and "transpose" in out


def test_no_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table9"])
    assert exc.value.code == 2


# -- profile -----------------------------------------------------------------

@pytest.mark.parametrize("backend", ["interp", "simx", "hls"])
def test_profile_backends(backend, capsys, tmp_path):
    trace = tmp_path / f"{backend}.trace.json"
    assert main(["profile", "vecadd", "--backend", backend,
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "== profile: vecadd" in out
    assert "counter" in out
    assert trace.exists()
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"], "trace must contain events"
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases, "trace must contain at least one span"


def test_profile_json_summary(capsys, tmp_path):
    trace = tmp_path / "p.trace.json"
    summary = tmp_path / "p.json"
    assert main(["profile", "vecadd", "--backend", "simx",
                 "--trace-out", str(trace),
                 "--json-out", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["backend"] == "simx"
    assert doc["counters"]["simx.cycles"] > 0
    assert doc["events"]["spans"] > 0


def test_profile_geometry_flags(capsys, tmp_path):
    trace = tmp_path / "g.trace.json"
    assert main(["profile", "vecadd", "--backend", "simx",
                 "--cores", "2", "--warps", "2", "--threads", "8",
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "== profile: vecadd" in out


def test_profile_unknown_benchmark(capsys, tmp_path):
    assert main(["profile", "no-such-benchmark",
                 "--trace-out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_profile_unknown_backend_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "vecadd", "--backend", "cuda"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["profile", "vecadd", "--jobs", "2"],
    ["table1", "--checkpoint-dir", "x"],
])
def test_subcommands_reject_flags_they_ignore(argv, capsys):
    """A subcommand parses only the engine flags it reads, so a flag it
    would silently ignore is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# -- interrupt handling ------------------------------------------------------

def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    """Ctrl-C mid-campaign: orderly unwind, exit 130, no traceback."""
    from repro import harness

    def fake_run_coverage(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_coverage", fake_run_coverage)
    assert main(["table1"]) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "Traceback" not in err


def test_interrupt_closes_live_engines(capsys, monkeypatch, tmp_path):
    """The interrupt path tears down any worker pool still alive."""
    from repro import harness
    from repro.harness import ExperimentEngine

    class FakePool:
        _processes = {}

        def shutdown(self, wait=True, cancel_futures=False):
            self.down = True

    engine = ExperimentEngine(jobs=2)
    engine._pool = FakePool()  # a live pool without the spawn cost

    def fake_run_coverage(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_coverage", fake_run_coverage)
    assert main(["table1"]) == 130
    assert "worker pool(s) closed" in capsys.readouterr().err
    assert engine._pool is None


def test_sigterm_is_routed_to_keyboard_interrupt(capsys, monkeypatch):
    """kill <pid> gets the same orderly unwind as Ctrl-C."""
    import os
    import signal
    import time

    from repro import harness

    def fake_run_coverage(**kwargs):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # the signal lands long before this expires
        raise AssertionError("SIGTERM handler never fired")

    monkeypatch.setattr(harness, "run_coverage", fake_run_coverage)
    assert main(["table1"]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_submit_rejects_malformed_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["submit", "{not json", "--state-dir",
              "/nonexistent-service-dir"])
    assert "not valid JSON" in str(exc.value)


def test_client_commands_report_unavailable(capsys, tmp_path):
    """Client subcommands fail fast with a typed message (not a
    traceback) when no daemon serves the state dir."""
    state = str(tmp_path / "no-daemon")
    for argv in (["status", "--state-dir", state,
                  "--service-retries", "0"],
                 ["results", "j000001-aabbccddee", "--state-dir", state,
                  "--service-retries", "0"],
                 ["drain", "--state-dir", state,
                  "--service-retries", "0"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unavailable" in err
        assert "Traceback" not in err


# -- flag validation and the engine/checkpoint builders ----------------------

@pytest.mark.parametrize("argv", [
    ["fig7", "--jobs", "-1"],
    ["table1", "--retries", "-1"],
    ["calibrate", "--point-timeout", "0"],
    ["calibrate", "--point-timeout", "nan"],
    ["fig7", "--checkpoint-every", "0"],
    ["fig7", "--checkpoint-every", "-5"],
    ["dse", "vecadd", "--frontier-cap", "0"],
    ["dse", "vecadd", "--frontier-cap", "-1"],
    ["serve", "--max-queue", "0"],
    ["serve", "--per-client", "0"],
    ["serve", "--batch-max", "0"],
    ["serve", "--jobs", "-1"],
    ["serve", "--retries", "-1"],
    ["serve", "--point-timeout", "-3"],
    ["serve", "--checkpoint-every", "0"],
    ["status", "--service-retries", "-1"],
    ["fig7", "--warp-sizes", "0"],
    ["fig7", "--thread-sizes", "4,-2"],
    ["fig7", "--warp-sizes", "2,x"],
    ["dse", "vecadd", "--cores", "0,2"],
    ["dse", "vecadd", "--warps", "-4"],
    ["dse", "vecadd", "--threads", "0"],
    ["dse", "vecadd", "--n", "0"],
    ["calibrate", "--n", "0"],
    ["profile", "vecadd", "--cores", "-1"],
    ["profile", "vecadd", "--warps", "-1"],
    ["profile", "vecadd", "--threads", "-1"],
    ["profile", "vecadd", "--bucket", "0"],
    ["profile", "vecadd", "--scale", "0"],
    ["serve", "--port", "-5"],
    ["serve", "--port", "65536"],
])
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    """An out-of-range number is rejected by the parser (exit 2 with
    the usage line) before any engine or daemon is built."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, runner", [
    (["fig7", "--warp-sizes", "2", "--thread-sizes", "2"], "run_sweep"),
    (["dse", "vecadd"], "run_dse"),
])
def test_checkpoint_flags_reach_the_runner(command, runner, monkeypatch,
                                           tmp_path, capsys):
    """``--checkpoint-*`` and ``--point-timeout`` become one
    ``checkpoint_spec`` handed to the runner (its 80% deadline comes
    from the timeout), next to the engine the CLI built."""
    from repro import harness
    from repro.harness import DSEResult, SweepResult
    from repro.hls import STRATIX10_SX2800
    from repro.vortex.simx.checkpoint import checkpoint_spec

    seen = []

    def fake(benchmark, **kwargs):
        seen.append(kwargs["checkpoint"])
        return (SweepResult(benchmark) if runner == "run_sweep"
                else DSEResult(device=STRATIX10_SX2800))

    monkeypatch.setattr(harness, runner, fake)
    ckpt = str(tmp_path / "ck")
    assert main(command + ["--checkpoint-dir", ckpt, "--checkpoint-every",
                           "5000", "--point-timeout", "100"]) == 0
    point_id = "fig7" if runner == "run_sweep" else "dse"
    assert seen and all(
        spec == checkpoint_spec(ckpt, point_id, 5000, 100.0)
        for spec in seen)


def test_all_exits_with_the_worst_artifact_status(monkeypatch, capsys):
    """A failed artifact is not masked by the ones regenerated after it."""
    import repro.__main__ as cli

    for name in cli._ARTIFACTS:
        monkeypatch.setitem(cli._ARTIFACTS, name,
                            lambda args, name=name: int(name == "table1"))
    assert main(["all"]) == 1


def test_all_honours_repro_cache_dir(monkeypatch, tmp_path, capsys):
    """Every artifact of ``all`` sees the parsed flags, so
    REPRO_CACHE_DIR reaches it like any other subcommand."""
    import repro.__main__ as cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    caches = []
    for name in cli._ARTIFACTS:
        monkeypatch.setitem(
            cli._ARTIFACTS, name,
            lambda args: caches.append(cli._make_cache(args)) or 0)
    assert main(["all"]) == 0
    assert len(caches) == 5
    assert all(c is not None and c.root == tmp_path for c in caches)
