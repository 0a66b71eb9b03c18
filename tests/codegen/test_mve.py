"""Tests for modulo variable expansion (§2.3's rotation-less fallback)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.mve import plan_mve, validate_mve_naming
from repro.core import modulo_schedule
from repro.frontend import ArrayRef, Assign, DoLoop, Scalar, compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.workloads import LoopGenerator
from repro.workloads.livermore import kernel1_hydro, kernel5_tridiag

MACHINE = cydra5()


def _plan(program, policy="minimal"):
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, ddg=ddg)
    assert result.success
    return plan_mve(result.schedule, ddg, policy=policy), ddg


def test_unroll_factor_covers_longest_lifetime():
    plan, ddg = _plan(kernel1_hydro())
    ii = plan.schedule.ii
    from repro.bounds import rr_values, schedule_lifetimes

    longest = max(
        lt.length
        for lt in schedule_lifetimes(plan.loop, ddg, plan.schedule.times, ii)
    )
    assert plan.unroll >= math.ceil(longest / ii)
    for vid, width in plan.names_per_value.items():
        assert plan.unroll % width == 0  # minimal policy: U = lcm of widths


def test_uniform_policy_uses_max_width_everywhere():
    plan, _ = _plan(kernel1_hydro(), policy="uniform")
    widths = set(plan.names_per_value.values())
    assert widths == {plan.unroll}


def test_minimal_needs_fewer_registers_than_uniform():
    minimal, _ = _plan(kernel5_tridiag(), policy="minimal")
    uniform, _ = _plan(kernel5_tridiag(), policy="uniform")
    assert minimal.total_registers <= uniform.total_registers


def test_naming_is_collision_free():
    for program in (kernel1_hydro(), kernel5_tridiag()):
        for policy in ("minimal", "uniform"):
            plan, ddg = _plan(program, policy)
            assert validate_mve_naming(plan, ddg) == []


def test_name_of_cycles_with_the_right_period():
    plan, _ = _plan(kernel1_hydro())
    for vid, width in plan.names_per_value.items():
        names = {plan.name_of(vid, k) for k in range(3 * width)}
        assert len(names) == width
        assert plan.name_of(vid, 0) == plan.name_of(vid, width)
        # Pre-loop (live-in) instances cycle through the same names.
        assert plan.name_of(vid, -1) == plan.name_of(vid, width - 1)


def test_names_are_disjoint_across_values():
    plan, _ = _plan(kernel5_tridiag())
    seen = set()
    for vid, width in plan.names_per_value.items():
        mine = {plan.name_of(vid, k) for k in range(width)}
        assert not (mine & seen)
        seen |= mine
    assert plan.total_registers == len(seen)


def test_code_expansion_accounting():
    plan, _ = _plan(kernel5_tridiag())
    assert plan.total_ops == (
        plan.prologue_ops + plan.unroll * plan.kernel_ops + plan.epilogue_ops
    )
    assert plan.expansion > 1.0  # kernel-only code is strictly smaller
    # Prologue + epilogue together replicate stages-1 full kernels.
    assert plan.prologue_ops + plan.epilogue_ops == (plan.stages - 1) * plan.kernel_ops


def test_unknown_policy_rejected():
    loop = compile_loop(kernel1_hydro())
    result = modulo_schedule(loop, MACHINE)
    with pytest.raises(ValueError):
        plan_mve(result.schedule, policy="magic")


def test_minimal_lcm_cap():
    loop = compile_loop(kernel1_hydro())
    result = modulo_schedule(loop, MACHINE)
    with pytest.raises(RuntimeError):
        plan_mve(result.schedule, policy="minimal", unroll_cap=1)


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=20, deadline=None)
def test_random_loops_get_collision_free_names(seed):
    program = LoopGenerator(seed).generate(f"mve{seed}", "neither")
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, ddg=ddg)
    plan = plan_mve(result.schedule, ddg, policy="uniform")
    assert validate_mve_naming(plan, ddg) == []


def test_power2_policy_divides_unroll():
    plan, ddg = _plan(kernel1_hydro(), policy="power2")
    for width in plan.names_per_value.values():
        assert plan.unroll % width == 0
        assert width & (width - 1) == 0  # powers of two
    assert validate_mve_naming(plan, ddg) == []


def test_power2_bounded_unroll_vs_minimal():
    minimal, _ = _plan(kernel1_hydro(), policy="minimal")
    power2, _ = _plan(kernel1_hydro(), policy="power2")
    # kernel1's widths {1,2,5,7} give lcm 70 but power-2 max only 8.
    assert minimal.unroll == 70
    assert power2.unroll == 8
    assert power2.total_registers >= minimal.total_registers
