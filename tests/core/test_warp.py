"""Tests for the Warp-style hierarchical scheduler (§8 baseline)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import LoopAnalysis
from repro.core import modulo_schedule, run_attempt, validate_schedule
from repro.core.warp import WarpScheduler
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.simulator import initial_state, run_pipelined, run_sequential
from repro.workloads import LoopGenerator
from repro.workloads.livermore import kernel5_tridiag

from tests.conftest import build_figure1_loop

MACHINE = cydra5()


def test_macro_nodes_group_recurrence_circuits():
    loop = build_figure1_loop()
    ddg = build_ddg(loop, MACHINE)
    scheduler = WarpScheduler(LoopAnalysis.of(ddg), 2)
    macro = [node for node in scheduler.nodes if len(node.members) > 1]
    assert len(macro) == 1  # x <-> y cross recurrence
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    y_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "y")
    assert sorted(macro[0].members) == sorted([x_def.oid, y_def.oid])


def test_fixed_relative_timing_respects_internal_arcs():
    program = kernel5_tridiag()
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, ddg=ddg)
    scheduler = WarpScheduler(LoopAnalysis.of(ddg), result.mii)
    for node in scheduler.nodes:
        if len(node.members) == 1:
            continue
        members = set(node.members)
        for arc in ddg.arcs:
            if arc.src in members and arc.dst in members:
                gap = node.offsets[arc.dst] - node.offsets[arc.src]
                assert gap >= arc.latency - arc.omega * result.mii


def test_warp_schedules_figure1_at_mii():
    loop = build_figure1_loop()
    result = modulo_schedule(loop, MACHINE, algorithm="warp")
    assert result.success and result.ii == result.mii == 2
    assert validate_schedule(result.schedule) == []


def test_warp_attempt_reports_failure_not_exception():
    """At an II too small for the divider, the attempt fails cleanly."""
    from tests.conftest import build_divider_loop

    loop = build_divider_loop()
    ddg = build_ddg(loop, MACHINE)
    scheduler = WarpScheduler(LoopAnalysis.of(ddg), 16)
    assert run_attempt(scheduler) is None
    assert scheduler.stats.placements >= 0


def test_warp_rejects_infeasible_ii():
    program = kernel5_tridiag()
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    with pytest.raises(ValueError):
        WarpScheduler(LoopAnalysis.of(ddg), 1)


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))


@given(
    st.integers(min_value=0, max_value=3_000),
    st.sampled_from(["neither", "conditional", "recurrence", "both"]),
)
@settings(max_examples=25, deadline=None)
def test_warp_schedules_are_valid_and_correct(seed, klass):
    program = LoopGenerator(seed).generate(f"warp{seed}", klass)
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, algorithm="warp", ddg=ddg)
    if not result.success:
        return  # no-backtracking failure is a legitimate outcome
    assert validate_schedule(result.schedule, ddg) == []
    sequential = run_sequential(program, initial_state(program))
    pipelined = run_pipelined(result.schedule, initial_state(program))
    for name in program.arrays:
        assert all(
            _close(a, b) for a, b in zip(sequential.arrays[name], pipelined.arrays[name])
        )
    for name in program.live_out:
        assert _close(sequential.scalars[name], pipelined.scalars[name])


def test_warp_never_beats_mii():
    for seed in range(6):
        program = LoopGenerator(seed).generate(f"w{seed}", "recurrence")
        loop = compile_loop(program)
        result = modulo_schedule(loop, MACHINE, algorithm="warp")
        if result.success:
            assert result.ii >= result.mii
