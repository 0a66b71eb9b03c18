"""Integration tests for whole-loop register assignment."""

import pytest

from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.regalloc import allocate_registers
from repro.workloads import named_kernels
from repro.workloads.livermore import kernel15_casual, kernel5_tridiag

MACHINE = cydra5()


def _is_read(loop, value):
    """True if some operation reads ``value``."""
    return any(operand.value is value for op in loop.ops for operand in op.inputs())


def _assignment(program):
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, ddg=ddg)
    assert result.success
    return loop, allocate_registers(result.schedule, ddg)


def test_every_rr_variant_gets_a_specifier():
    loop, assignment = _assignment(kernel5_tridiag())
    from repro.bounds import rr_values

    for value in rr_values(loop):
        # Dead values (no uses) are skipped; live ones must be assigned.
        if _is_read(loop, value):
            assert value.vid in assignment.rr.specifiers


def test_predicates_go_to_icr():
    loop, assignment = _assignment(kernel15_casual())
    assert assignment.icr_registers >= 1
    from repro.bounds import icr_values

    for value in icr_values(loop):
        if _is_read(loop, value):
            assert value.vid in assignment.icr.specifiers


def test_invariants_get_distinct_gprs():
    loop, assignment = _assignment(kernel5_tridiag())
    indexes = list(assignment.gpr.values())
    assert len(indexes) == len(set(indexes))


def test_allocation_close_to_maxlive_over_kernels():
    """§3.2 / Rau '92: allocation ~always achieves MaxLive + O(1)."""
    worst = 0
    for program in named_kernels()[:18]:
        _, assignment = _assignment(program)
        worst = max(worst, assignment.rr.overshoot)
    assert worst <= 8
