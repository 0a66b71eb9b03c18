"""Unit tests for the sequential reference interpreter."""

import pytest

from repro.frontend import (
    ArrayRef,
    Assign,
    Const,
    DoLoop,
    Expr,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Stmt,
    Unary,
)
from repro.simulator import MachineState, initial_state, run_sequential


def test_simple_map():
    program = DoLoop(
        "map",
        body=[Assign(ArrayRef("z"), ArrayRef("x") * 2.0)],
        arrays={"z": 20, "x": 20},
        start=0,
        trip=5,
    )
    state = initial_state(program)
    before = list(state.arrays["x"])
    after = run_sequential(program, state)
    for i in range(5):
        assert after.arrays["z"][i] == before[i] * 2.0


def test_reduction_live_out():
    program = DoLoop(
        "sum",
        body=[Assign(Scalar("s"), Scalar("s") + ArrayRef("x"))],
        arrays={"x": 20},
        scalars={"s": 0.0},
        live_out=["s"],
        start=0,
        trip=6,
    )
    state = initial_state(program)
    expected = sum(state.arrays["x"][:6])
    after = run_sequential(program, state)
    assert after.scalars["s"] == pytest.approx(expected)


def test_recurrence_uses_previous_elements():
    program = DoLoop(
        "prefix",
        body=[Assign(ArrayRef("x"), ArrayRef("x", -1) + 1.0)],
        arrays={"x": 20},
        start=1,
        trip=4,
    )
    state = initial_state(program)
    x0 = state.arrays["x"][0]
    after = run_sequential(program, state)
    assert after.arrays["x"][4] == pytest.approx(x0 + 4.0)


def test_conditional_branches():
    program = DoLoop(
        "cond",
        body=[
            If(
                ArrayRef("x") > Const(10.0),
                then=[Assign(Scalar("hi"), Scalar("hi") + 1.0)],
                orelse=[Assign(Scalar("lo"), Scalar("lo") + 1.0)],
            )
        ],
        arrays={"x": 20},
        scalars={"hi": 0.0, "lo": 0.0},
        live_out=["hi", "lo"],
        start=0,
        trip=8,
    )
    after = run_sequential(program, initial_state(program))
    # seeded values live in [0.5, 1.5): the > 10 branch never fires.
    assert after.scalars["hi"] == 0.0
    assert after.scalars["lo"] == 8.0


def test_index_expression():
    program = DoLoop(
        "idx",
        body=[Assign(ArrayRef("z"), Index() * Const(1.0))],
        arrays={"z": 20},
        start=3,
        trip=4,
    )
    after = run_sequential(program, initial_state(program))
    assert after.arrays["z"][3:7] == [3.0, 4.0, 5.0, 6.0]


def test_gather_and_scatter():
    program = DoLoop(
        "move",
        body=[Assign(Scatter("z", Index()), Gather("x", Index()))],
        arrays={"x": 20, "z": 20},
        start=0,
        trip=5,
    )
    state = initial_state(program)
    source = list(state.arrays["x"])
    after = run_sequential(program, state)
    assert after.arrays["z"][:5] == source[:5]


def test_gather_index_is_clamped():
    program = DoLoop(
        "clamp",
        body=[Assign(ArrayRef("z"), Gather("x", Index() * Const(100.0)))],
        arrays={"x": 10, "z": 30},
        start=1,
        trip=2,
    )
    state = initial_state(program)
    last = state.arrays["x"][-1]
    after = run_sequential(program, state)
    assert after.arrays["z"][1] == last  # index 100 clamps to the end


def test_sqrt_and_division_totalized():
    program = DoLoop(
        "tot",
        body=[
            Assign(ArrayRef("z"), Unary("sqrt", ArrayRef("x") - 100.0)),
            Assign(ArrayRef("w"), ArrayRef("x") / Const(0.0)),
        ],
        arrays={"x": 20, "z": 20, "w": 20},
        start=0,
        trip=3,
    )
    after = run_sequential(program, initial_state(program))
    assert all(v >= 0 for v in after.arrays["z"][:3])
    assert after.arrays["w"][:3] == [0.0, 0.0, 0.0]


def test_explicit_trip_override():
    program = DoLoop(
        "short",
        body=[Assign(ArrayRef("z"), Const(1.0))],
        arrays={"z": 20},
        start=0,
        trip=10,
    )
    after = run_sequential(program, initial_state(program), trip=2)
    assert after.arrays["z"][:3].count(1.0) == 2


def test_state_copy_is_deep():
    state = MachineState(arrays={"a": [1.0, 2.0]}, scalars={"s": 0.0})
    clone = state.copy()
    clone.arrays["a"][0] = 9.0
    clone.scalars["s"] = 5.0
    assert state.arrays["a"][0] == 1.0
    assert state.scalars["s"] == 0.0


GATHER = DoLoop(
    "init",
    body=[Assign(ArrayRef("z"), Gather("ix", Index()))],
    arrays={"ix": 8, "z": 20},
    start=0,
    trip=4,
)


def test_array_init_override():
    state = initial_state(GATHER, array_init={"ix": [3.0]})
    assert all(v == 3.0 for v in state.arrays["ix"])


def test_array_init_without_values_is_rejected():
    with pytest.raises(ValueError, match="'ix' no values"):
        initial_state(GATHER, array_init={"ix": []})


def test_array_init_of_an_undeclared_array_is_rejected():
    """A misspelt name must not leave the array silently seeded."""
    with pytest.raises(ValueError, match="'iz', which init does not declare"):
        initial_state(GATHER, array_init={"iz": [3.0]})


# ----------------------------------------------------------------------
# Error timing: a fault in the loop body surfaces only when executed
# ----------------------------------------------------------------------
class _Mystery(Expr):
    """An expression node the interpreter does not know."""

    __slots__ = ()


class _Pause(Stmt):
    """A statement node the interpreter does not know."""

    __slots__ = ()


def _branching(then, taken):
    """A loop whose one conditional runs ``then`` on every iteration when
    ``taken``, and never otherwise (seeded cells lie in [0.5, 1.5))."""
    cond = ArrayRef("x") < Const(10.0) if taken else ArrayRef("x") > Const(10.0)
    return DoLoop(
        "timing",
        body=[Assign(ArrayRef("w"), ArrayRef("x") + 1.0), If(cond, then=then)],
        arrays={"x": 20, "z": 20, "w": 20},
        start=0,
        trip=4,
    )


READS_A_GHOST = [Assign(ArrayRef("z"), Scalar("ghost") + 1.0)]


def test_a_scalar_without_a_value_raises_only_when_read():
    untaken = _branching(READS_A_GHOST, taken=False)
    after = run_sequential(untaken, initial_state(untaken))
    assert after.arrays["w"][3] == after.arrays["x"][3] + 1.0
    taken = _branching(READS_A_GHOST, taken=True)
    with pytest.raises(KeyError, match="scalar 'ghost' has no value"):
        run_sequential(taken, initial_state(taken))


@pytest.mark.parametrize(
    "then, message",
    [
        ([_Pause()], "cannot execute"),
        ([Assign(ArrayRef("z"), _Mystery())], "cannot evaluate"),
        ([Assign(ArrayRef("z"), ArrayRef("x") * _Mystery())], "cannot evaluate"),
        ([Assign(Const(1.0), ArrayRef("x"))], "cannot assign to"),
    ],
    ids=["statement", "expression", "operand", "target"],
)
def test_an_unknown_node_raises_only_when_reached(then, message):
    untaken = _branching(then, taken=False)
    state = initial_state(untaken)
    run_sequential(untaken, state)
    assert state.arrays["w"][:4] == [x + 1.0 for x in state.arrays["x"][:4]]
    taken = _branching(then, taken=True)
    state = initial_state(taken)
    with pytest.raises(TypeError, match=message):
        run_sequential(taken, state)
    # The first iteration's statements before the fault have run.
    assert state.arrays["w"][0] == state.arrays["x"][0] + 1.0
    assert state.arrays["w"][1] != state.arrays["x"][1] + 1.0


@pytest.mark.parametrize(
    "target",
    [Const(1.0), Scatter("z", Scalar("index_ghost")), Scalar("s")],
    ids=["unsupported", "scatter", "scalar"],
)
def test_an_assignment_evaluates_its_value_before_its_target(target):
    program = _branching([Assign(target, Scalar("ghost"))], taken=True)
    with pytest.raises(KeyError, match="scalar 'ghost' has no value"):
        run_sequential(program, initial_state(program))
