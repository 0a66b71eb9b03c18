"""Explain reports and ASCII renderings stay consistent with results."""

from repro.bounds import rr_max_live
from repro.core import SchedulerOptions, modulo_schedule
from repro.ir import build_ddg
from repro.obs import (
    CollectingTracer,
    MetricsRegistry,
    Observer,
    explain,
    render_lifetime_chart,
    render_mrt_occupancy,
)

from tests.conftest import build_divider_loop, build_figure1_loop


def traced(machine, build=build_figure1_loop, **kwargs):
    tracer = CollectingTracer()
    result = modulo_schedule(build(), machine, observer=Observer(tracer), **kwargs)
    return result, tracer.events


def test_explain_reports_result_numbers(machine):
    result, events = traced(machine)
    report = explain(result, events)
    assert f"scheduled at II={result.schedule.ii}" in report
    assert f"MII={result.mii}" in report
    assert f"ResMII={result.res_mii}" in report
    assert f"RecMII={result.rec_mii}" in report
    ddg = build_ddg(result.loop, result.machine)
    pressure = rr_max_live(result.loop, ddg, result.schedule.times, result.schedule.ii)
    assert f"MaxLive={pressure}" in report
    assert "optimal" in report


def test_explain_names_the_critical_resource(machine):
    result, events = traced(machine)
    # figure1's two float adds saturate the single Adder at II=2.
    assert "critical resource: Adder" in explain(result, events)


def test_explain_lists_attempts_and_ejections(machine):
    result, events = traced(machine, build_divider_loop)
    report = explain(result, events)
    assert f"attempts ({result.stats.attempts}):" in report
    if result.stats.ejections:
        assert "worst offenders" in report
    else:
        assert "no backtracking needed" in report


def test_explain_on_failure_gives_escalation_reasons(machine):
    options = SchedulerOptions(max_rr_pressure=1, max_attempts=2)
    result, events = traced(machine, options=options)
    report = explain(result, events)
    assert "FAILED to pipeline" in report
    assert "II escalations: 2" in report
    assert "register budget" in report


def test_explain_includes_metrics_block(machine):
    tracer, metrics = CollectingTracer(), MetricsRegistry()
    result = modulo_schedule(
        build_figure1_loop(), machine, observer=Observer(tracer, metrics)
    )
    report = explain(result, tracer.events, metrics)
    assert "metrics:" in report
    assert "scheduler.placements" in report
    # Wall-clock spans stay out of the post-mortem, so it is repeatable.
    assert "driver.place" not in report and " ms" not in report


def test_explain_without_trace_events(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    report = explain(result, [])
    assert "no trace events captured" in report


def test_render_mrt_occupancy_marks_saturation(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    art = render_mrt_occupancy(result.schedule)
    assert f"II={result.schedule.ii}" in art
    assert "<- critical" in art
    assert "Adder[0]" in art
    # One line per unit instance plus two header lines.
    assert len(art.splitlines()) == 2 + sum(u.count for u in machine.unit_classes)


def _lanes(art):
    """``{unit instance label: cells}`` of an occupancy grid.  A lane's
    body starts after the 18-character label and the utilization
    column; the critical marker is not a cell."""
    return {
        line[:18].strip(): line[24:].replace("<- critical", "").split()
        for line in art.splitlines()[2:]
    }


def test_every_unit_instance_has_a_lane(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    lanes = _lanes(render_mrt_occupancy(result.schedule))
    for name in ("Memory Port[0]", "Memory Port[1]", "Address ALU[1]",
                 "Adder[0]", "Multiplier[0]", "Divider[0]", "Branch Unit[0]"):
        assert name in lanes


def test_each_real_op_appears_once(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    lanes = _lanes(render_mrt_occupancy(result.schedule))
    oids = [cell for cells in lanes.values() for cell in cells if cell not in (".", "=")]
    assert sorted(int(oid) for oid in oids) == sorted(
        op.oid for op in result.schedule.loop.real_ops
    )


def test_nonpipelined_busy_cycles_marked(machine):
    result = modulo_schedule(build_divider_loop(), machine)
    lanes = _lanes(render_mrt_occupancy(result.schedule))
    # The 17-cycle divide occupies 1 issue cell + 16 '=' continuation cells.
    assert lanes["Divider[0]"].count("=") == 16


def test_render_lifetime_chart_matches_maxlive(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    ddg = build_ddg(result.loop, machine)
    art = render_lifetime_chart(result.schedule, ddg)
    pressure = rr_max_live(result.loop, ddg, result.schedule.times, result.schedule.ii)
    assert f"MaxLive={pressure}" in art
    # Every II row of the live vector is rendered.
    for row in range(result.schedule.ii):
        assert f"row {row:>3}:" in art


# ----------------------------------------------------------------------
# Flight-recorder post-mortems (the failure-side sibling of explain)
# ----------------------------------------------------------------------
def test_flight_postmortem_renders_tail_and_ops_in_flight(machine):
    from repro.obs import FlightRecorder, flight_postmortem

    ring = FlightRecorder(capacity=64)
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(ring))
    text = flight_postmortem(
        "figure1", ring.dump(), status="crashed", error="worker died"
    )
    assert "=== post-mortem: figure1 ===" in text
    assert "status=crashed" in text and "worker died" in text
    assert "[   0] attempt_start" in text
    assert "place" in text


def test_flight_postmortem_counts_dropped_events(machine):
    from repro.obs import FlightRecorder, flight_postmortem

    ring = FlightRecorder(capacity=4)
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(ring))
    assert ring.dropped > 0
    text = flight_postmortem("figure1", ring.dump())
    assert f"({ring.dropped} earlier dropped from the ring)" in text
    assert f"last {len(ring.dump())} event(s)" in text


def test_flight_postmortem_replays_surviving_placements():
    from repro.obs import flight_postmortem

    records = [
        {"kind": "attempt_start", "seq": 0, "ii": 4},
        {"kind": "place", "seq": 1, "oid": 3, "cycle": 0},
        {"kind": "place", "seq": 2, "oid": 5, "cycle": 2},
        {"kind": "eject", "seq": 3, "oid": 3, "cycle": 0},
    ]
    text = flight_postmortem("mid-flight", records)
    assert "ops in flight at death (1): 5" in text


def test_demo_explain_prints_the_same_bytes_twice(capsys):
    # The post-mortem's metrics block holds counts, gauges and
    # histograms only, so two runs of one loop print identical output.
    from repro.cli import main

    outputs = []
    for _ in range(2):
        assert main(["--demo", "--explain"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "metrics:" in outputs[0] and "scheduler.attempts" in outputs[0]
    assert outputs[0] == outputs[1]
