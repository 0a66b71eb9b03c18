"""Unit tests for the pipelined dataflow executor."""

import dataclasses

import pytest

from repro.core import modulo_schedule
from repro.frontend import ArrayRef, Assign, DoLoop, Scalar, compile_loop
from repro.ir import Opcode
from repro.machine import build_machine, cydra5
from repro.simulator import (
    MachineState,
    SimulationError,
    dataflow,
    initial_state,
    run_pipelined,
    run_sequential,
)
from repro.simulator.state import _seeded_cells, seeded_value
from repro.workloads import paper_corpus

from tests.conftest import build_figure1_loop, on_targets

MACHINE = cydra5()
_CORPUS = paper_corpus(52, seed=1993)


def _scheduled(program, **kwargs):
    loop = compile_loop(program, **kwargs)
    result = modulo_schedule(loop, MACHINE)
    assert result.success
    return result.schedule


def test_live_in_values_come_from_initial_arrays():
    """Loop-carried uses in the first iterations read pre-loop memory."""
    program = DoLoop(
        "carried",
        body=[Assign(ArrayRef("x"), ArrayRef("x", -2) + 1.0)],
        arrays={"x": 30},
        start=2,
        trip=6,
    )
    schedule = _scheduled(program)
    state = initial_state(program)
    x0, x1 = state.arrays["x"][0], state.arrays["x"][1]
    final = run_pipelined(schedule, state)
    assert final.arrays["x"][2] == pytest.approx(x0 + 1.0)
    assert final.arrays["x"][3] == pytest.approx(x1 + 1.0)
    assert final.arrays["x"][4] == pytest.approx(x0 + 2.0)


def test_live_in_scalars_come_from_initial_bindings():
    program = DoLoop(
        "acc",
        body=[Assign(Scalar("s"), Scalar("s") + 1.0)],
        scalars={"s": 10.0},
        live_out=["s"],
        trip=4,
    )
    schedule = _scheduled(program)
    final = run_pipelined(schedule, initial_state(program))
    assert final.scalars["s"] == pytest.approx(14.0)


def test_trip_override_and_bad_trip():
    program = DoLoop(
        "short",
        body=[Assign(Scalar("s"), Scalar("s") + 1.0)],
        scalars={"s": 0.0},
        live_out=["s"],
        trip=10,
    )
    schedule = _scheduled(program)
    final = run_pipelined(schedule, initial_state(program), trip=3)
    assert final.scalars["s"] == 3.0
    with pytest.raises(ValueError):
        run_pipelined(schedule, initial_state(program), trip=0)


def test_missing_origin_raises_without_init_fn():
    loop = build_figure1_loop()  # hand-built IR: values have no origins
    loop.meta["trip"] = 4
    result = modulo_schedule(loop, MACHINE)
    state = MachineState(arrays={"x": [0.0] * 20, "y": [0.0] * 20}, scalars={})
    with pytest.raises(SimulationError):
        run_pipelined(result.schedule, state)


def test_consumer_issued_before_its_producer_raises():
    program = DoLoop(
        "scaled",
        body=[Assign(ArrayRef("y"), ArrayRef("x") * 2.0 + 1.0)],
        arrays={"x": 30, "y": 30},
        trip=6,
    )
    schedule = _scheduled(program)
    # A non-memory op reading a value its own iteration computes (an
    # affine load or store never reads its address operand, so moving
    # one would go unnoticed).
    consumer, operand = next(
        (op, operand)
        for op in schedule.loop.real_ops
        if not op.is_memory
        for operand in op.operands
        if operand.value.is_variant and operand.back == 0
    )
    times = dict(schedule.times)
    times[consumer.oid] = times[operand.value.defop.oid] - 1
    broken = dataclasses.replace(schedule, times=times)
    with pytest.raises(SimulationError, match="before its instance 0 was computed"):
        run_pipelined(broken, initial_state(program))


@on_targets(_CORPUS[:4] + _CORPUS[48:])
def test_instances_run_in_issue_cycle_then_oid_order(program, target, monkeypatch):
    """Instance (x, k) issues at t(x) + k*II; the executor runs them
    sorted by (issue cycle, oid), whatever order it finds them in."""
    loop = compile_loop(program)
    result = modulo_schedule(loop, build_machine(target))
    assert result.success
    schedule = result.schedule
    executed = []
    lower_op = dataflow.lower_op

    def recording_lower_op(op, reader, state):
        step = lower_op(op, reader, state)

        def recorded(k):
            executed.append((op.oid, k))
            return step(k)

        return recorded

    monkeypatch.setattr(dataflow, "lower_op", recording_lower_op)
    run_pipelined(schedule, initial_state(program))
    instances = [
        (op.oid, k)
        for op in loop.real_ops
        if op.opcode is not Opcode.BRTOP
        for k in range(loop.meta["trip"])
    ]

    def issue(instance):
        oid, k = instance
        return schedule.times[oid] + k * schedule.ii, oid

    assert executed == sorted(instances, key=issue)


def test_init_fn_supplies_live_ins():
    loop = build_figure1_loop()
    loop.meta["trip"] = 4
    result = modulo_schedule(loop, MACHINE)
    state = MachineState(arrays={"x": [0.0] * 20, "y": [0.0] * 20}, scalars={})

    def init_fn(value, iteration):
        return 1.0  # every live-in value is 1.0

    final = run_pipelined(result.schedule, state, init_fn=init_fn)
    # x_k = x_{k-1} + y_{k-2}: with all live-ins 1.0 -> 2, 3, 5, 8 pattern
    # The store address IV also uses init_fn (returns 1.0), so stores land
    # at elements 2, 3, 4, 5; just check something was written.
    assert any(v != 0.0 for v in final.arrays["x"])


def test_seeded_values_are_deterministic_and_bounded():
    a = seeded_value("x", 3, seed=0)
    b = seeded_value("x", 3, seed=0)
    c = seeded_value("x", 4, seed=0)
    assert a == b
    assert a != c
    assert 0.5 <= a < 1.5


def _assert_seeded(state, seed):
    for name, cells in state.arrays.items():
        assert cells == [seeded_value(name, i, seed) for i in range(len(cells))], name


def _doubling(size):
    """x(i) = x(i) * 2 over four iterations: the one array keeps its
    declared ``size``, which exceeds every element the loop touches."""
    return DoLoop(
        "doubling", body=[Assign(ArrayRef("x"), ArrayRef("x") * 2.0)],
        arrays={"x": size}, start=0, trip=4,
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_initial_state_cells_are_seeded_values(seed):
    """Every cell is ``seeded_value``'s, and nothing leaks through the
    memo of seeded images: a state built again after ``run_sequential``
    wrote the first is still seeded and shares no list with it, one array
    name at two sizes gets both sizes, and a new seed gets new values."""
    for program in paper_corpus(240, 1993):
        state = initial_state(program, seed=seed)
        _assert_seeded(state, seed)
        run_sequential(program, state)
        again = initial_state(program, seed=seed)
        _assert_seeded(again, seed)
        assert not {id(cells) for cells in state.arrays.values()} & {
            id(cells) for cells in again.arrays.values()
        }, program.name

    for size in (64, 160, 64):
        state = initial_state(_doubling(size), seed=seed)
        assert len(state.arrays["x"]) == size
        _assert_seeded(state, seed)
    for other in (seed + 1, seed):
        _assert_seeded(initial_state(_doubling(64), seed=other), other)

    memo = _seeded_cells.cache_info()
    assert memo.maxsize is not None and memo.currsize <= memo.maxsize
