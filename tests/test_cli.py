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
