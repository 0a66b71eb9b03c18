"""Sequential reference interpreter for DoLoop programs.

Executes the source AST iteration by iteration, exactly as the original
(unpipelined) FORTRAN loop would.  This is the semantic ground truth the
pipelined executors are checked against: a schedule is correct iff
running it leaves memory and live-out scalars identical to this
interpreter's results.

The loop body is lowered once per run to a tree of closures, one per
statement and expression node, each called with the loop index.  The
lowering only dispatches on node types; everything that depends on
execution happens when a closure runs: ``state.scalars`` and
``state.arrays`` are read then, a value is evaluated before its target
and a left operand before its right, and a scalar without a value or an
unsupported statement, expression or assignment target raises only when
execution reaches it.  The interpreter shares no execution code with
:func:`repro.simulator.dataflow.lower_op`, only the totalized arithmetic
of :mod:`repro.simulator.state`.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Sequence

from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Compare,
    Const,
    DoLoop,
    ExitIf,
    Expr,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Stmt,
    Unary,
)
from repro.simulator.state import MachineState, clamp_element, fdiv, fsqrt, initial_state

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": fdiv,
    "min": min,
    "max": max,
}
_COMPARES = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
_UNARIES = {"neg": operator.neg, "abs": abs, "sqrt": fsqrt}


class _EarlyExit(Exception):
    """Raised by an ExitIf statement whose condition fired."""


#: A lowered statement or expression: executes (or evaluates) it for the
#: iteration whose loop index is the argument.
Node = Callable[[int], object]


def run_sequential(
    program: DoLoop,
    state: Optional[MachineState] = None,
    trip: Optional[int] = None,
    seed: int = 0,
) -> MachineState:
    """Execute the loop sequentially; returns the final machine state."""
    if state is None:
        state = initial_state(program, seed=seed)
    iterations = program.trip if trip is None else trip
    body = _lower_block(program.body, state)
    for k in range(iterations):
        try:
            body(program.start + k)
        except _EarlyExit:
            break
    return state


def _lower_block(stmts: Sequence[Stmt], state: MachineState) -> Node:
    steps = [_lower_statement(stmt, state) for stmt in stmts]
    if len(steps) == 1:
        return steps[0]

    def block(index: int) -> None:
        for step in steps:
            step(index)

    return block


def _lower_statement(stmt: Stmt, state: MachineState) -> Node:
    if isinstance(stmt, Assign):
        return _lower_assign(stmt, state)
    if isinstance(stmt, If):
        cond = _lower_expr(stmt.cond, state)
        then, orelse = _lower_block(stmt.then, state), _lower_block(stmt.orelse, state)
        return lambda index: then(index) if cond(index) else orelse(index)
    if isinstance(stmt, ExitIf):
        cond = _lower_expr(stmt.cond, state)

        def exit_if(index: int) -> None:
            if cond(index):
                raise _EarlyExit

        return exit_if
    return _raises(TypeError, f"cannot execute {stmt!r}")


def _lower_assign(stmt: Assign, state: MachineState) -> Node:
    """The value first, then the target: an array is looked up, and a
    scatter's index evaluated, after the value."""
    value = _lower_expr(stmt.expr, state)
    target = stmt.target
    if isinstance(target, Scalar):
        name = target.name

        def assign_scalar(index: int) -> None:
            state.scalars[name] = value(index)

        return assign_scalar
    if isinstance(target, ArrayRef):
        array, stride, offset = target.array, target.stride, target.offset

        def assign_element(index: int) -> None:
            state.arrays[array][stride * index + offset] = value(index)

        return assign_element
    if isinstance(target, Scatter):
        array, position = target.array, _lower_expr(target.index, state)

        def scatter(index: int) -> None:
            result = value(index)
            cells = state.arrays[array]
            cells[clamp_element(cells, position(index))] = result

        return scatter
    fail = _raises(TypeError, f"cannot assign to {target!r}")

    def assign_nowhere(index: int) -> None:
        value(index)
        fail()

    return assign_nowhere


def _lower_expr(expr: Expr, state: MachineState) -> Node:
    if isinstance(expr, Const):
        constant = expr.value
        return lambda index: constant
    if isinstance(expr, Scalar):
        name = expr.name

        def scalar(index: int):
            try:
                return state.scalars[name]
            except KeyError:
                raise KeyError(f"scalar {name!r} has no value") from None

        return scalar
    if isinstance(expr, Index):
        return float
    if isinstance(expr, ArrayRef):
        array, stride, offset = expr.array, expr.stride, expr.offset
        return lambda index: state.arrays[array][stride * index + offset]
    if isinstance(expr, Gather):
        array, position = expr.array, _lower_expr(expr.index, state)

        def gather(index: int):
            cells = state.arrays[array]
            return cells[clamp_element(cells, position(index))]

        return gather
    if isinstance(expr, (BinOp, Compare)):
        table = _BINOPS if isinstance(expr, BinOp) else _COMPARES
        function = table.get(expr.op)
        if function is None:
            # An unknown operator fails once both operands are evaluated.
            function = _raises(KeyError, expr.op)
        left, right = _lower_expr(expr.left, state), _lower_expr(expr.right, state)
        return lambda index: function(left(index), right(index))
    if isinstance(expr, Unary):
        function = _UNARIES.get(expr.op)
        if function is None:
            return _raises(KeyError, expr.op)  # before the operand is evaluated
        operand = _lower_expr(expr.operand, state)
        return lambda index: function(operand(index))
    return _raises(TypeError, f"cannot evaluate {expr!r}")


def _raises(kind: type, argument) -> Callable[..., object]:
    """A node (or operator) that raises ``kind(argument)`` when it is
    called, so an unsupported construct fails only if execution reaches
    it."""

    def fail(*operands):
        raise kind(argument)

    return fail
