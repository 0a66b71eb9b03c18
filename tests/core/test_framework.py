"""Unit tests for the operation-driven scheduling framework (§4)."""

import pytest

from repro.bounds import LoopAnalysis
from repro.core import AttemptFailed, SlackAttempt, run_attempt
from repro.core.framework import SchedulingAttempt
from repro.ir import DType, LoopBody, Opcode, Operand, build_ddg

from tests.conftest import build_divider_loop, build_figure1_loop


def _attempt(machine, loop, ii, **kwargs):
    ddg = build_ddg(loop, machine)
    return SlackAttempt(LoopAnalysis.of(ddg), ii, **kwargs)


def test_start_is_pinned_at_zero(machine):
    attempt = _attempt(machine, build_figure1_loop(), ii=2)
    assert attempt.times == {attempt.start_oid: 0}
    assert attempt.start_oid not in attempt.unplaced


def test_initial_bounds_figure1(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    # Estart(x) = MinDist(Start, x); Lstart(x) = cap - MinDist(x, Stop).
    estart, lstart = attempt.estart, attempt.lstart
    for op in loop.real_ops:
        assert estart[op.oid] >= 0
        assert lstart[op.oid] >= estart[op.oid]
    # Critical path: brtop (latency 2) and add+store (1+1) -> cap = 2.
    assert attempt.lstart_cap == 2


def test_cap_rounds_up_to_ii_multiple_under_contention(machine):
    loop = build_divider_loop()  # ResMII = 17 > 1: contention
    attempt = _attempt(machine, loop, ii=17)
    assert attempt.contention
    assert attempt.lstart_cap % 17 == 0
    assert attempt.lstart_cap >= attempt.estart[attempt.stop_oid]


def test_infeasible_ii_rejected(machine):
    loop = LoopBody("tight")
    s = loop.new_value("s", DType.FLOAT)
    loop.add_op(Opcode.MUL_F, s, [Operand(s, back=1)])  # RecMII = 2
    loop.finalize()
    ddg = build_ddg(loop, machine)
    with pytest.raises(ValueError):
        SlackAttempt(LoopAnalysis.of(ddg), 1)


def test_run_places_every_op(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    times = attempt.run()
    assert set(times) == {op.oid for op in loop.ops}
    assert not attempt.unplaced


def test_bounds_track_placements(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    store_x = next(
        op for op in loop.real_ops if op.is_store and op.attrs["array"] == "x"
    )
    attempt._place(x_def, 0)
    attempt._refresh_bounds()
    # store_x must now start at least 1 cycle after x's def.
    assert attempt.estart[store_x.oid] >= 1


def test_ejection_restores_unplaced_and_mrt(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    attempt._place(adds[0], 0)
    occupancy = attempt.mrt.occupancy()
    attempt._eject([adds[0].oid])
    assert adds[0].oid in attempt.unplaced
    assert adds[0].oid not in attempt.times
    assert attempt.mrt.occupancy() == occupancy - 1
    assert attempt.stats.ejections == 1


def test_force_place_ejects_resource_blocker(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    attempt._place(adds[0], 0)
    attempt._place(adds[1], 1)
    # Force the first add into cycle 1: the second add must be ejected.
    attempt._eject([adds[0].oid])
    attempt._refresh_bounds()
    attempt.last_place[adds[0].oid] = 0
    cycle = attempt._force_place(adds[0])
    assert cycle == 1
    assert adds[1].oid in attempt.unplaced
    assert attempt.stats.forced == 1


def test_budget_exhaustion_raises(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    attempt = SlackAttempt(
        LoopAnalysis.of(ddg), 2, budget_ratio=16.0
    )
    attempt.budget = 2  # artificially tiny
    with pytest.raises(AttemptFailed):
        attempt.run()


def test_run_attempt_returns_none_on_failure(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    attempt = SlackAttempt(LoopAnalysis.of(ddg), 2)
    attempt.budget = 1
    assert run_attempt(attempt) is None


def test_abstract_hooks_raise(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    attempt = SchedulingAttempt(LoopAnalysis.of(ddg), 2)
    with pytest.raises(NotImplementedError):
        attempt.choose_operation()
    with pytest.raises(NotImplementedError):
        attempt.choose_issue_cycle(loop.real_ops[0], 0, 1)
