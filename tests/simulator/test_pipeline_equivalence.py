"""The central correctness property of the whole system:

    compile -> modulo schedule -> pipelined execution
        ==  sequential execution of the source loop

exactly (NaN equal only to NaN), for every scheduler on every registry
target, on the hand-written kernels and on randomly generated programs.
This exercises the front end (if-conversion, dependence analysis,
load/store elimination), the bounds, the scheduler (including
backtracking) and the executor together.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import modulo_schedule, validate_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine, machine_names
from repro.simulator import initial_state, run_pipelined, run_sequential, state_mismatches
from repro.workloads import LoopGenerator, named_kernels

from tests.conftest import on_targets

MACHINES = {name: build_machine(name) for name in machine_names()}


def assert_equivalent(program, target, algorithm="slack", allow_failure=False, **compile_kwargs):
    machine = MACHINES[target]
    loop = compile_loop(program, **compile_kwargs)
    ddg = build_ddg(loop, machine)
    result = modulo_schedule(loop, machine, algorithm=algorithm, ddg=ddg)
    if allow_failure and not result.success:
        # Failing to pipeline is a legitimate outcome for the baselines
        # (the paper's Cydrome runs failed on 14 loops, Table 4).
        return result
    assert result.success, f"{program.name} on {target}: no schedule found"
    violations = validate_schedule(result.schedule, ddg)
    assert not violations, f"{program.name} on {target}: {violations[:3]}"
    sequential = run_sequential(program, initial_state(program))
    pipelined = run_pipelined(result.schedule, initial_state(program))
    mismatches = state_mismatches(program, sequential, pipelined)
    assert not mismatches, f"{program.name} on {target}: {mismatches[:3]}"
    return result


@on_targets(named_kernels())
def test_named_kernels_slack(program, target):
    result = assert_equivalent(program, target, "slack")
    assert result.ii >= result.mii
    if target == "cydra5":  # the paper's machine; vliw-wide misses MII on 5 kernels
        assert result.optimal, f"{program.name} missed MII: {result.ii} > {result.mii}"


@on_targets(named_kernels()[:12])
def test_named_kernels_cydrome(program, target):
    assert_equivalent(program, target, "cydrome")


@on_targets(named_kernels()[:12])
def test_named_kernels_unidirectional(program, target):
    assert_equivalent(program, target, "unidirectional")


@on_targets(named_kernels()[:8])
def test_named_kernels_without_elimination(program, target):
    """The pipeline must stay correct with load/store elimination off."""
    assert_equivalent(
        program, target, "slack", load_store_elimination=False, load_reuse=False
    )


@st.composite
def random_programs(draw):
    """A generated loop and the registry target to run it on."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    klass = draw(st.sampled_from(["neither", "conditional", "recurrence", "both"]))
    target = draw(st.sampled_from(machine_names()))
    return LoopGenerator(seed).generate(f"hyp_{seed}_{klass}", klass), target


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_slack(case):
    assert_equivalent(*case, "slack")


@given(random_programs())
@settings(max_examples=15, deadline=None)
def test_random_programs_cydrome(case):
    assert_equivalent(*case, "cydrome", allow_failure=True)


@given(random_programs())
@settings(max_examples=15, deadline=None)
def test_random_programs_unidirectional(case):
    assert_equivalent(*case, "unidirectional")


@given(random_programs())
@settings(max_examples=10, deadline=None)
def test_random_programs_without_elimination(case):
    assert_equivalent(*case, "slack", load_store_elimination=False, load_reuse=False)


@on_targets(named_kernels()[:12])
def test_named_kernels_height(program, target):
    """The IMS-style height baseline must also be semantically exact."""
    assert_equivalent(program, target, "height")


@given(random_programs())
@settings(max_examples=10, deadline=None)
def test_random_programs_height(case):
    assert_equivalent(*case, "height")
