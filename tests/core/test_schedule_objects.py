"""Unit tests for Schedule / ScheduleResult / SchedulerStats plumbing."""

from repro.core import SchedulerStats, modulo_schedule
from repro.machine import cydra5

from tests.conftest import build_accumulator_loop, build_divider_loop, build_figure1_loop

MACHINE = cydra5()


def test_stats_merge_accumulates_every_field():
    a = SchedulerStats(attempts=1, placements=10, forced=2, ejections=3,
                       mindist_seconds=0.5, scheduling_seconds=1.0)
    b = SchedulerStats(attempts=2, placements=5, forced=1, ejections=4,
                       mindist_seconds=0.25, scheduling_seconds=0.5)
    a.merge(b)
    assert a.attempts == 3
    assert a.placements == 15
    assert a.forced == 3
    assert a.ejections == 7
    assert a.mindist_seconds == 0.75
    assert a.scheduling_seconds == 1.5


def test_stats_backtracked_flag():
    assert not SchedulerStats().backtracked
    assert SchedulerStats(ejections=1).backtracked


def test_resource_table_holds_every_real_op_from_its_issue_row():
    result = modulo_schedule(build_divider_loop(), MACHINE)
    schedule = result.schedule
    rows = schedule.resource_table().rows()
    busy = 0
    for op in schedule.loop.real_ops:
        cells = rows[schedule.binding[op.oid]]
        issue = schedule.times[op.oid]
        for extra in range(MACHINE.busy_cycles(op)):
            assert cells[(issue + extra) % schedule.ii] == op.oid
        busy += MACHINE.busy_cycles(op)
    assert sum(schedule.ii - cells.count(-1) for cells in rows.values()) == busy


def test_stages_lower_bound():
    result = modulo_schedule(build_accumulator_loop(), MACHINE)
    schedule = result.schedule
    assert schedule.stages >= 1
    assert schedule.stages * schedule.ii >= schedule.span


def test_result_ii_on_success_and_mii_components():
    result = modulo_schedule(build_figure1_loop(), MACHINE)
    assert result.ii == result.schedule.ii
    assert result.mii == max(result.res_mii, result.rec_mii)


def test_render_lists_ops_in_time_order():
    result = modulo_schedule(build_figure1_loop(), MACHINE)
    text = result.schedule.render()
    times = [
        int(line.split("t=")[1].split()[0])
        for line in text.splitlines()
        if "t=" in line
    ]
    assert times == sorted(times)
