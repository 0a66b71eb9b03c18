"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
loop clitest
array x 60
array y 60
scalar s 0.0
liveout s
do i = 2, 21
    x(i) = x(i-1) * 0.5 + y(i)
    s = s + x(i)
end do
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text(SOURCE)
    return str(path)


def test_demo_runs(capsys):
    assert main(["--demo"]) == 0
    out = capsys.readouterr().out
    assert "MII=" in out and "scheduled at II=" in out


def test_schedule_from_file(source_file, capsys):
    assert main([source_file]) == 0
    out = capsys.readouterr().out
    assert "clitest" in out
    assert "register pressure" in out


def test_emit_and_simulate(source_file, capsys):
    assert main([source_file, "--emit", "--simulate"]) == 0
    out = capsys.readouterr().out
    assert "kernel-only code" in out
    assert "matches sequential" in out


def test_simulate_rejects_a_nan_live_out(source_file, monkeypatch, capsys):
    """NaN compares unequal to everything, so no tolerance test on the
    difference catches it; the comparison must be exact."""
    import repro.cli

    pipelined = repro.cli.run_pipelined

    def nan_live_out(schedule, state):
        state = pipelined(schedule, state)
        state.scalars["s"] = float("nan")
        return state

    monkeypatch.setattr(repro.cli, "run_pipelined", nan_live_out)
    assert main([source_file, "--simulate"]) == 1
    out = capsys.readouterr().out
    assert "SIMULATION MISMATCH: 1 locations differ" in out
    assert "s = nan, want" in out


def test_simulate_checks_the_vliw_kernel(source_file, monkeypatch, capsys):
    """A wrong cell from the VLIW executor alone fails the run, and the
    report names that executor."""
    import repro.cli

    vliw = repro.cli.run_vliw

    def corrupt_cell(kernel, state):
        state = vliw(kernel, state)
        state.arrays["x"][5] += 1.0
        return state

    monkeypatch.setattr(repro.cli, "run_vliw", corrupt_cell)
    assert main([source_file, "--simulate"]) == 1
    out = capsys.readouterr().out
    assert "the dataflow executor matches sequential" in out
    assert "SIMULATION MISMATCH: 1 locations differ in the VLIW executor" in out
    assert "x[5] = " in out


def test_dump_ir(source_file, capsys):
    assert main([source_file, "--dump-ir"]) == 0
    assert "brtop" in capsys.readouterr().out


def test_algorithm_selection(source_file, capsys):
    assert main([source_file, "--algorithm", "cydrome"]) == 0


def test_load_latency_flag(source_file, capsys):
    assert main([source_file, "--load-latency", "2", "--simulate"]) == 0


def test_missing_file():
    assert main(["/nonexistent/loop.txt"]) == 2


def test_no_source():
    assert main([]) == 2


def test_parse_error_reported(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("loop broken\n")
    assert main([str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
    assert main(["-"]) == 0


def test_paper_report_flag(capsys):
    assert main(["--paper-report", "25"]) == 0
    out = capsys.readouterr().out
    for marker in ("Table 2", "Table 3", "Table 4", "Figure 5", "Figure 8", "Section 6"):
        assert marker in out


def test_warp_algorithm_via_cli(source_file):
    assert main([source_file, "--algorithm", "warp"]) == 0


def test_trace_jsonl_replays_to_final_schedule(tmp_path, capsys):
    from repro.frontend import compile_loop
    from repro.frontend.parser import parse_loop
    from repro.machine import cydra5
    from repro.core import modulo_schedule
    from repro.obs import load_jsonl, replay_times

    path = tmp_path / "trace.jsonl"
    assert main(["--demo", "--trace", str(path)]) == 0
    assert "trace:" in capsys.readouterr().out
    events = load_jsonl(str(path))
    assert events, "trace file must not be empty"
    # The demo run is deterministic: replaying the written trace must
    # reconstruct the same schedule an in-process run produces.
    from repro.cli import _DEMO

    loop = compile_loop(parse_loop(_DEMO))
    result = modulo_schedule(loop, cydra5())
    assert replay_times(events) == result.schedule.times


def test_trace_chrome_format(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    assert main(["--demo", "--trace", str(path), "--trace-format", "chrome"]) == 0
    document = json.loads(path.read_text())
    assert document["traceEvents"]
    assert {"name", "ph", "pid"} <= set(document["traceEvents"][-1])


def test_explain_flag(capsys):
    assert main(["--demo", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "=== explain: figure1 ===" in out
    assert "critical resource" in out
    assert "MRT occupancy" in out
    assert "metrics:" in out


def test_verbose_flag_logs_progress(capsys, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="repro.core.driver"):
        assert main(["--demo", "--verbose"]) == 0
    assert any("scheduled at II=" in message for message in caplog.messages)


def test_default_run_is_quiet(capsys, caplog):
    assert main(["--demo"]) == 0
    assert not caplog.messages
