"""Pipelined dataflow executor, and the op lowering both pipelined
simulators run.

Every operation instance ``(op, k)`` of the software pipeline issues at
global cycle ``time(op) + k * II``.  The executor runs all instances for
the loop's trip count in issue-cycle order (ties by textual order —
latencies >= 1 guarantee producers run before their consumers) against
a :class:`MachineState`.  It walks kernel iterations, then the II rows,
then each row's ops in oid order: with ``time(op) = stage * II + row``,
instance ``(op, k)`` issues in kernel iteration ``k + stage``, so that
walk is the sorted (cycle, oid) order without building or sorting the
instances.

Cross-iteration operands read the producing instance ``(value, k -
back)``; when that instance precedes the loop (``k - back < 0``), the
value comes from the operand value's *origin*: the initial scalar
binding, the initial array contents, or the address-IV formula — exactly
the live-in values the rotating register file holds at cycle 0 in the
paper's Figure 3.

Operations execute through :func:`lower_op`, which this executor calls
once per operation per run.  It turns an operation into a ``step(k)``
function for its iteration-k instance: the opcode's semantics come from
a table, and the operand readers, the array and the affine base/stride
are bound in advance.  Here the readers resolve constants, invariants,
the instance table (one column per value, indexed by iteration) and
live-in origins.

:func:`plain_form` is the one definition of the plain kinds (binary and
unary arithmetic, affine loads and stores) and of the order they read
their operands in.  ``lower_op`` builds its steps for them from it, and
:func:`repro.simulator.vliw.run_vliw` uses it to read those ops'
registers inline; for every other op the VLIW simulator calls
``lower_op`` with register readers.

This is the semantic half of schedule verification; pair it with
:func:`repro.core.validate.validate_schedule` (the timing/resource half)
and a :func:`repro.simulator.sequential.run_sequential` run to prove a
pipelined loop correct end to end.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.operations import Opcode, Operation
from repro.ir.values import AddressOrigin, ArrayElementOrigin, Operand, ScalarOrigin, Value
from repro.core.schedule import Schedule
from repro.simulator.state import MachineState, clamp_element, fdiv, fsqrt

#: Optional hook supplying live-in values for loops built without origins
#: (hand-written IR in tests): (value, iteration < 0) -> float.
InitFn = Callable[[Value, int], float]

#: Reads one operand of an operation for loop iteration k.
Reader = Callable[[int], object]

#: Executes one operation's iteration-k instance; returns its result
#: (None for stores).
Step = Callable[[int], object]

_UNSET = object()  # an instance-table cell no instance has written yet


class SimulationError(RuntimeError):
    """The schedule or loop body is inconsistent with execution."""


def run_pipelined(
    schedule: Schedule,
    state: MachineState,
    trip: Optional[int] = None,
    init_fn: Optional[InitFn] = None,
) -> MachineState:
    """Execute ``schedule`` for ``trip`` iterations over ``state``.

    Mutates and returns ``state``; live-out scalars are written back to
    ``state.scalars`` after the last iteration.
    """
    loop = schedule.loop
    ii = schedule.ii
    iterations = trip if trip is not None else int(loop.meta.get("trip", 0))
    if iterations <= 0:
        raise ValueError("trip count must be positive")
    initial = state.copy()
    for name, binding in loop.meta.get("scalars", {}).items():
        initial.scalars.setdefault(name, binding)

    ops = [op for op in loop.real_ops if op.opcode is not Opcode.BRTOP]
    columns: Dict[int, List[object]] = {
        op.dest.vid: [_UNSET] * iterations for op in ops if op.dest is not None
    }

    def reader(operand: Operand) -> Reader:
        return _instance_reader(operand, columns, iterations, initial, init_fn)

    # Kernel rows of (stage, step, column), each in oid order.
    rows: List[List[tuple]] = [[] for _ in range(ii)]
    stages = []
    for op in ops:
        stage, row = divmod(schedule.times[op.oid], ii)
        column = columns[op.dest.vid] if op.dest is not None else None
        rows[row].append((stage, lower_op(op, reader, state), column))
        stages.append(stage)

    # Kernel iteration m runs instance k = m - stage of each op.
    for m in range(min(stages, default=0), iterations + max(stages, default=0)):
        for row in rows:
            for stage, step, column in row:
                k = m - stage
                if 0 <= k < iterations:
                    result = step(k)
                    if column is not None:
                        column[k] = result

    for name, value in loop.live_out.items():
        if value.is_variant:
            state.scalars[name] = columns[value.vid][iterations - 1]
    return state


def _instance_reader(
    operand: Operand,
    columns: Dict[int, List[object]],
    iterations: int,
    initial: MachineState,
    init_fn: Optional[InitFn],
) -> Reader:
    value = operand.value
    if value.is_constant:
        literal = value.literal
        return lambda k: literal
    if value.is_invariant:
        try:
            bound = _invariant_value(value, initial)
        except SimulationError as error:
            return _fails(str(error))
        return lambda k: bound
    back = operand.back
    # A value no operation defines is never computed.
    column = columns.get(value.vid) or [_UNSET] * iterations

    def read(k: int):
        producer = k - back
        if producer < 0:
            return _live_in_value(value, producer, initial, init_fn)
        result = column[producer]
        if result is _UNSET:
            raise SimulationError(
                f"{value} consumed in iteration {k} before its instance "
                f"{producer} was computed — the schedule is broken"
            )
        return result

    return read


def _invariant_value(value: Value, initial: MachineState):
    name = value.name
    if name.startswith("&"):
        return 0.0  # array base addresses are modeled in element units
    try:
        return initial.scalars[name]
    except KeyError:
        raise SimulationError(f"invariant {name!r} has no initial binding") from None


def _live_in_value(
    value: Value, iteration: int, initial: MachineState, init_fn: Optional[InitFn]
):
    """Value of a pre-loop instance (iteration < 0), from the origin."""
    origin = value.origin
    if isinstance(origin, ScalarOrigin):
        return initial.scalars[origin.name]
    if isinstance(origin, ArrayElementOrigin):
        cells = initial.arrays[origin.array]
        element = origin.element(iteration)
        if 0 <= element < len(cells):
            return cells[element]
        return 0.0
    if isinstance(origin, AddressOrigin):
        return float(origin.at(iteration))
    if init_fn is not None:
        return init_fn(value, iteration)
    raise SimulationError(
        f"{value} is read {-iteration} iteration(s) before the loop but has "
        "no origin and no init_fn was supplied"
    )


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
#: Opcodes that read both operands, first then second, and combine them.
_BINARY = {
    Opcode.ADDR_ADD: operator.add,
    Opcode.ADD_I: operator.add,
    Opcode.ADD_F: operator.add,
    Opcode.ADDR_SUB: operator.sub,
    Opcode.SUB_I: operator.sub,
    Opcode.SUB_F: operator.sub,
    Opcode.ADDR_MUL: operator.mul,
    Opcode.MUL_I: operator.mul,
    Opcode.MUL_F: operator.mul,
    Opcode.DIV_I: fdiv,
    Opcode.DIV_F: fdiv,
    Opcode.MIN_F: min,
    Opcode.MAX_F: max,
    Opcode.CMP_LT: operator.lt,
    Opcode.CMP_LE: operator.le,
    Opcode.CMP_GT: operator.gt,
    Opcode.CMP_GE: operator.ge,
    Opcode.CMP_EQ: operator.eq,
    Opcode.CMP_NE: operator.ne,
    Opcode.XOR_B: lambda a, b: bool(a) != bool(b),
}

#: Opcodes that read one operand.
_UNARY = {
    Opcode.SQRT_F: fsqrt,
    Opcode.ABS_F: abs,
    Opcode.NEG_F: operator.neg,
    Opcode.NOT_B: operator.not_,
}


#: The plain forms :func:`plain_form` returns.
BINARY_FORM, UNARY_FORM, LOAD_FORM, STORE_FORM = "binary", "unary", "load", "store"

#: (form, function or None, operands in read order).
PlainForm = Tuple[str, Optional[Callable], Tuple[Operand, ...]]


def plain_form(op: Operation) -> Optional[PlainForm]:
    """``(form, function, reads)`` when ``op`` is of a plain kind, else None.

    A plain op reads its operands unconditionally, in the order of
    ``reads``, then applies ``function`` (a ``_BINARY`` or ``_UNARY``
    entry) or touches the element ``abs + stride * k`` of its array:

    * BINARY_FORM: a ``_BINARY`` opcode, reading operand 0 then operand 1;
    * UNARY_FORM: a ``_UNARY`` opcode, reading operand 0;
    * LOAD_FORM: an affine LOAD, reading nothing (``function`` is None);
    * STORE_FORM: an affine STORE, reading its predicate when it has one,
      stopping there if it is false, then its value (operand 1).

    Every other op (MOD_I, SELECT, AND/OR, gathers and scatters, unknown
    opcodes) reads lazily or must not fail until reached: only its
    :func:`lower_op` step executes it.  A missing operand raises
    IndexError here, as lowering it would.
    """
    opcode = op.opcode
    operands = op.operands
    function = _BINARY.get(opcode)
    if function is not None:
        return BINARY_FORM, function, (operands[0], operands[1])
    function = _UNARY.get(opcode)
    if function is not None:
        return UNARY_FORM, function, (operands[0],)
    affine = not op.attrs.get("gather") and "abs" in op.attrs
    if (opcode is Opcode.LOAD or opcode is Opcode.STORE) and affine:
        if opcode is Opcode.LOAD:
            return LOAD_FORM, None, ()
        value = operands[1]
        reads = (value,) if op.predicate is None else (op.predicate, value)
        return STORE_FORM, None, reads
    return None


def affine_access(op: Operation, state: MachineState) -> Tuple[List[float], int, int]:
    """(cells, base, stride) of an affine LOAD or STORE: iteration k
    touches ``cells[base + stride * k]``."""
    cells = state.arrays[op.attrs["array"]]
    return cells, int(op.attrs["abs"]), int(op.attrs["stride"])


def lower_op(op: Operation, reader: Callable[[Operand], Reader], state: MachineState) -> Step:
    """Lower ``op`` to a ``step(k)`` that executes its iteration-k instance.

    ``reader(operand)`` builds the function that reads ``operand`` for
    iteration k; building one reads nothing.  A plain op (see
    :func:`plain_form`) reads its operands in the order that function
    gives.  Otherwise: MOD_I reads its divisor first (and not its
    dividend when the divisor is 0), SELECT reads only the arm it picks,
    AND/OR short-circuit, and an indirect STORE reads its predicate,
    then its value, then its address register, stopping after the
    predicate when it squashes the store.  Loads and stores work on
    ``state``'s array, bound here.
    """
    form = plain_form(op)
    if form is not None:
        kind, function, reads = form
        if kind is BINARY_FORM:
            a, b = reader(reads[0]), reader(reads[1])
            return lambda k: function(a(k), b(k))
        if kind is UNARY_FORM:
            a = reader(reads[0])
            return lambda k: function(a(k))
        cells, base, stride = affine_access(op, state)
        if kind is LOAD_FORM:
            return lambda k: cells[base + stride * k]
        value = reader(reads[-1])
        if len(reads) == 1:

            def store(k: int):
                cells[base + stride * k] = value(k)

            return store
        predicate = reader(reads[0])

        def predicated_store(k: int):
            if predicate(k):
                cells[base + stride * k] = value(k)

        return predicated_store
    opcode = op.opcode
    operands = op.operands
    if opcode is Opcode.MOD_I:
        a, b = reader(operands[0]), reader(operands[1])

        def modulo(k: int):
            divisor = b(k)
            return a(k) % divisor if divisor else 0.0

        return modulo
    if opcode is Opcode.SELECT:
        p, a, b = reader(operands[0]), reader(operands[1]), reader(operands[2])
        return lambda k: a(k) if p(k) else b(k)
    if opcode is Opcode.AND_B:
        a, b = reader(operands[0]), reader(operands[1])
        return lambda k: bool(a(k)) and bool(b(k))
    if opcode is Opcode.OR_B:
        a, b = reader(operands[0]), reader(operands[1])
        return lambda k: bool(a(k)) or bool(b(k))
    if opcode is Opcode.LOAD or opcode is Opcode.STORE:
        return _lower_indirect(op, reader, state.arrays[op.attrs["array"]])
    return _fails(f"cannot execute opcode {opcode}")


def _lower_indirect(op: Operation, reader: Callable[[Operand], Reader], cells: List[float]) -> Step:
    # A gather or scatter (or hand-built IR without affine attributes):
    # the address operand *is* the element index, clamped exactly like
    # the sequential interpreter clamps it.
    address = reader(op.operands[0])

    def element(k: int) -> int:
        return clamp_element(cells, address(k))

    if op.opcode is Opcode.LOAD:
        return lambda k: cells[element(k)]
    value = reader(op.operands[1])
    predicate = reader(op.predicate) if op.predicate is not None else None

    def store(k: int):
        if predicate is None or predicate(k):
            cells[element(k)] = value(k)  # reads the value before the address

    return store


def _fails(message: str) -> Callable[[int], object]:
    """A reader or step that raises ``SimulationError(message)`` when it
    is called, so a fault surfaces only if execution reaches it."""

    def fail(k: int):
        raise SimulationError(message)

    return fail
