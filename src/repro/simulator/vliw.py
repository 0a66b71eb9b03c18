"""Register-level VLIW simulator: executes kernel-only code.

This is the deepest validation layer: it runs the *generated kernel*
(one copy, II rows) against rotating register files, modeling

* rotation: the file rotates once per kernel iteration, so a value
  written through specifier ``s`` is read ``b`` iterations and
  ``delta-stage`` rows later through ``s + stage_delta + b`` — the
  encoding baked in by :mod:`repro.codegen.kernel`.  After m rotations
  the iteration control pointer is ``-m``, so specifier ``s`` names
  physical register ``(s - m) mod size``;
* staging: an operation at stage sigma executes in kernel iteration m
  for loop iteration ``k = m - sigma`` and is squashed unless
  ``0 <= k < trip`` (the staging-predicate schema of kernel-only code:
  the pipeline fills for the first ``stages-1`` kernel iterations and
  drains for the last);
* write latency: results commit to their physical register
  ``latency`` cycles after issue, and commits are applied before the
  reads of the cycle they land on, in issue order among those due the
  same cycle.  Pending writes wait in a ring of per-cycle buckets one
  longer than the largest latency, each drained once, at its commit
  cycle; an op with latency below 1, whose write would be due in a
  bucket already drained, raises :class:`SimulationError`;
* live-in values: loop-carried uses whose producing iteration precedes
  the loop are preloaded into the exact physical registers the rotation
  will expose to their consumers (the paper's Figure 3 shows the same
  preloaded live-ins at cycle 0).

Each kernel operation is lowered once per run, together with its
latency, destination file and live-out name.  An op of a plain kind
(:func:`repro.simulator.dataflow.plain_form`: a binary or unary
arithmetic op, an affine load, an affine store) becomes a row entry that
holds where each operand lives (a :data:`Location`), and the row loop
reads those registers itself, in the order ``plain_form`` gives, with no
call per operand.  Every other op, and a plain one with an operand that
has no encoding or names a missing file, runs the ``step(k)`` that
:func:`repro.simulator.dataflow.lower_op` builds over register readers.
The staging predicates are read once per kernel iteration, since only
brtop changes them.  Running the kernel and comparing memory plus
live-out scalars against the sequential interpreter validates
scheduling, register allocation and code generation together.  (Affine
load/store addresses are computed from the access attributes; indirect
accesses go through the address registers.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.kernel import KernelCode, KernelOp, KernelOperand
from repro.ir.operations import Opcode, Operation
from repro.ir.values import Operand
from repro.machine.machine import Machine
from repro.simulator.dataflow import (
    BINARY_FORM,
    LOAD_FORM,
    STORE_FORM,
    UNARY_FORM,
    InitFn,
    Reader,
    SimulationError,
    _fails,
    _invariant_value,
    _live_in_value,
    affine_access,
    lower_op,
    plain_form,
)
from repro.simulator.state import MachineState

#: A register file's physical registers; None marks one never written.
Registers = List[Optional[object]]

#: Where a kernel op's result goes: (file, encoded specifier, file size,
#: latency, live-out scalar name or None).
Destination = Tuple[Registers, int, int, int, Optional[str]]

#: Where a read finds its operand: (file, specifier, file size, whether
#: the file rotates, the encoded operand).  Kernel iteration m reads
#: physical ``(spec - m) mod size`` of a rotating file and cell ``spec``
#: of a fixed one: a GPR, whose specifier is reduced modulo the file size
#: in advance, or an immediate's one-cell file.
Location = Tuple[Registers, int, int, bool, KernelOperand]

#: The kind of a kernel op that keeps its :func:`lower_op` step.
_STEP = "step"

#: One lowered kernel op: (kind, stage, op, arguments, destination).  The
#: arguments are ``step`` for _STEP; (function, location...) for a binary
#: or unary op; (cells, base, stride) for an affine load, and (cells,
#: base, stride, predicate location or None, value location) for an
#: affine store.
Entry = Tuple[str, int, Operation, object, Optional[Destination]]


def run_vliw(
    kernel: KernelCode,
    state: MachineState,
    trip: Optional[int] = None,
    init_fn: Optional[InitFn] = None,
) -> MachineState:
    """Execute kernel-only code for ``trip`` iterations over ``state``."""
    loop = kernel.loop
    machine = kernel.schedule.machine
    ii, stages = kernel.ii, kernel.stages
    iterations = trip if trip is not None else int(loop.meta.get("trip", 0))
    if iterations <= 0:
        raise ValueError("trip count must be positive")

    initial = state.copy()
    for name, binding in loop.meta.get("scalars", {}).items():
        initial.scalars.setdefault(name, binding)
    files = _register_files(kernel)
    _preload_gprs(kernel, files, initial)
    _preload_live_ins(kernel, files, initial, init_fn)

    live_out_names = {value.vid: name for name, value in loop.live_out.items()}
    rows = [
        [
            _lower(kop, files, machine, live_out_names, state)
            for kop in row
            if kop.op.opcode is not Opcode.BRTOP  # brtop runs once per kernel iteration below
        ]
        for row in kernel.rows
    ]
    used_stages = sorted({stage for row in rows for _, stage, *_ in row})

    # Pending register writes (file, physical, value), in issue order in
    # the bucket of their commit cycle modulo ``slots``; one slot more
    # than the largest latency keeps each write out of the bucket its
    # own cycle drains.
    latencies = [dest[3] for row in rows for *_, dest in row if dest is not None]
    slots = 1 + max(latencies, default=0)
    ring: List[List[Tuple[Registers, int, object]]] = [[] for _ in range(slots)]
    live_out_values: Dict[str, object] = {}
    last = iterations - 1
    loop_control = _LoopControl(stages, iterations)

    running = True
    m = 0
    while running:
        # The staging predicates change only at brtop: read each stage's
        # bit once per kernel iteration.
        active = {stage: loop_control.stage_active(stage, m) for stage in used_stages}
        for row_index in range(ii):
            cycle = m * ii + row_index
            due = ring[cycle % slots]
            for registers, physical, value in due:
                registers[physical] = value
            due.clear()
            for kind, stage, op, args, dest in rows[row_index]:
                if not active[stage]:
                    continue  # stage predicate (rotating ICR bit) squashes
                k = m - stage
                if not (0 <= k < iterations):  # hardware/bookkeeping cross-check
                    raise SimulationError(
                        f"stage predicate enabled {op!r} for iteration {k} "
                        f"outside [0, {iterations}) — brtop loop control is broken"
                    )
                # Inline reads (see Location), in plain_form's read order.
                if kind is BINARY_FORM:
                    function, a, b = args
                    registers, spec, size, rotating, _ = a
                    left = registers[(spec - m) % size if rotating else spec]
                    if left is None:
                        raise _unwritten(op, k, a, m)
                    registers, spec, size, rotating, _ = b
                    right = registers[(spec - m) % size if rotating else spec]
                    if right is None:
                        raise _unwritten(op, k, b, m)
                    result = function(left, right)
                elif kind is LOAD_FORM:
                    cells, base, stride = args
                    result = cells[base + stride * k]
                elif kind is STORE_FORM:
                    cells, base, stride, predicate, value = args
                    taken = True
                    if predicate is not None:
                        registers, spec, size, rotating, _ = predicate
                        taken = registers[(spec - m) % size if rotating else spec]
                        if taken is None:
                            raise _unwritten(op, k, predicate, m)
                    if taken:
                        registers, spec, size, rotating, _ = value
                        stored = registers[(spec - m) % size if rotating else spec]
                        if stored is None:
                            raise _unwritten(op, k, value, m)
                        cells[base + stride * k] = stored
                    result = None
                elif kind is UNARY_FORM:
                    function, a = args
                    registers, spec, size, rotating, _ = a
                    operand = registers[(spec - m) % size if rotating else spec]
                    if operand is None:
                        raise _unwritten(op, k, a, m)
                    result = function(operand)
                else:
                    result = args(k)
                if dest is not None:
                    registers, spec, size, latency, live_out = dest
                    physical = (spec - m) % size
                    ring[(cycle + latency) % slots].append((registers, physical, result))
                    if live_out is not None and k == last:
                        live_out_values[live_out] = result
        running = loop_control.brtop(m)
        m += 1  # brtop decrements the ICP once per kernel iteration
        if m > iterations + stages + 2:
            raise SimulationError("brtop failed to terminate the pipeline")

    for name, value in live_out_values.items():
        state.scalars[name] = value
    return state


def _register_files(kernel: KernelCode) -> Dict[str, Registers]:
    """The machine's three register files for one simulation run."""
    assignment = kernel.assignment
    return {
        "rr": [None] * max(1, assignment.rr_registers),
        "icr": [None] * max(1, assignment.icr_registers),
        "gpr": [None] * max(1, assignment.gpr_registers),
    }


def _lower(
    kop: KernelOp,
    files: Dict[str, Registers],
    machine: Machine,
    live_out_names: Dict[int, str],
    state: MachineState,
) -> Entry:
    """One kernel op, lowered.

    A plain op (:func:`plain_form`) whose every read has a location runs
    inline; any other op, or a plain one with an operand that has no
    encoding or names a missing file, keeps its :func:`lower_op` step.
    """
    op = kop.op
    encoding = {id(ir): encoded for ir, encoded in zip(op.operands, kop.operands)}
    if op.predicate is not None and kop.predicate is not None:
        encoding[id(op.predicate)] = kop.predicate

    form = plain_form(op)
    locations = []
    if form is not None:
        locations = [_location(encoding.get(id(operand)), files) for operand in form[2]]
    if form is None or None in locations:

        def reader(operand: Operand) -> Reader:
            encoded = encoding.get(id(operand))
            if encoded is None:
                return _fails(f"operand {operand!r} of {op!r} not encoded")
            return _register_reader(encoded, op, kop.stage, files)

        kind, args = _STEP, lower_op(op, reader, state)
    else:
        kind, function, _ = form
        if kind is BINARY_FORM or kind is UNARY_FORM:
            args = (function, *locations)
        elif kind is LOAD_FORM:
            args = affine_access(op, state)
        else:
            predicate = locations[0] if len(locations) == 2 else None
            args = (*affine_access(op, state), predicate, locations[-1])

    dest = None
    if kop.dest is not None:
        registers = files.get(kop.dest.kind)
        if registers is None:
            raise SimulationError(f"no register file {kop.dest.kind!r}")
        latency = machine.latency(op)
        if latency < 1:
            raise SimulationError(
                f"{op!r} has write latency {latency}; the kernel needs >= 1"
            )
        live_out = live_out_names.get(op.dest.vid)
        dest = (registers, kop.dest.spec, len(registers), latency, live_out)
    return kind, kop.stage, op, args, dest


def _location(encoded: Optional[KernelOperand], files: Dict[str, Registers]) -> Optional[Location]:
    """Where an inline read of ``encoded`` looks, or None when it cannot
    be read inline: no encoding, no such file, or an immediate without a
    literal (which its step returns as is)."""
    if encoded is None:
        return None
    if encoded.kind == "imm":
        if encoded.literal is None:
            return None
        return [encoded.literal], 0, 1, False, encoded
    registers = files.get(encoded.kind)
    if registers is None:
        return None
    size = len(registers)
    if encoded.kind == "gpr":
        return registers, encoded.spec % size, size, False, encoded
    return registers, encoded.spec, size, True, encoded


def _register_reader(
    encoded: KernelOperand, op: Operation, stage: int, files: Dict[str, Registers]
) -> Reader:
    """Read ``encoded`` in loop iteration k, i.e. kernel iteration k + stage."""
    if encoded.kind == "imm":
        literal = encoded.literal
        return lambda k: literal
    location = _location(encoded, files)
    if location is None:
        return _fails(f"no register file {encoded.kind!r}")
    registers, spec, size, rotating, _ = location

    def read(k: int):
        m = k + stage
        value = registers[(spec - m) % size if rotating else spec]
        if value is None:
            raise _unwritten(op, k, location, m)
        return value

    return read


def _unwritten(op: Operation, k: int, location: Location, m: int) -> SimulationError:
    """The error for a read, in kernel iteration m, of a register no
    write or live-in preload has reached."""
    _, spec, size, rotating, encoded = location
    physical = (spec - m) % size if rotating else spec
    return SimulationError(
        f"{op!r} iteration {k}: read of {encoded.render()} "
        f"(physical {physical}) "
        "returned an unwritten register — allocation or codegen is broken"
    )


class _LoopControl:
    """Cydra-style `brtop` loop management (§2.1).

    Hardware state: the loop counter LC (remaining new iterations), the
    epilogue stage counter ESC (kernel iterations needed to drain the
    pipeline), and a small rotating file of *staging predicates*.  Once
    per kernel iteration, brtop either starts a new source iteration
    (LC > 0: write True into next iteration's stage-0 predicate) or
    begins draining (write False); the file rotates with the ICP, so
    the bit written for iteration k is read by its stage-sigma ops as
    specifier sigma, sigma kernel iterations later — which is exactly
    how kernel-only code squashes the pipeline fill and drain without
    prologue or epilogue copies.
    """

    def __init__(self, stages: int, trip: int):
        self.size = stages + 1
        self.bits = [False] * self.size
        self.bits[0] = True  # iteration 0's stage-0 predicate, preset
        self.lc = trip - 1
        self.esc = stages - 1

    def stage_active(self, stage: int, m: int) -> bool:
        return self.bits[(stage - m) % self.size]

    def brtop(self, m: int) -> bool:
        """One brtop execution at kernel iteration m.

        Returns False when the pipeline has fully drained.
        """
        if self.lc > 0:
            self.lc -= 1
            start_next = True
        elif self.esc > 0:
            self.esc -= 1
            start_next = False
        else:
            return False
        # Write iteration (m+1)'s stage-0 predicate: physical slot
        # (0 - (m+1)) mod size under the rotating map.
        self.bits[(0 - (m + 1)) % self.size] = start_next
        return True


def _preload_gprs(
    kernel: KernelCode, files: Dict[str, Registers], initial: MachineState
) -> None:
    gprs = files["gpr"]
    for value in kernel.loop.values:
        if value.is_invariant:
            index = kernel.assignment.gpr[value.vid]
            gprs[index % len(gprs)] = _invariant_value(value, initial)


def _preload_live_ins(
    kernel: KernelCode,
    files: Dict[str, Registers],
    initial: MachineState,
    init_fn: Optional[InitFn],
) -> None:
    """Seed pre-loop value instances into their physical registers.

    Instance (v, j) for j < 0 lives in physical ``(s_phys(v) - j) mod R``
    where ``s_phys`` is the negated allocator specifier — the same map
    the kernel's encoded specifiers resolve through.
    """
    loop = kernel.loop
    max_back: Dict[int, int] = {}
    for op in loop.ops:
        for operand in op.inputs():
            if operand.back > 0 and operand.value.is_variant:
                vid = operand.value.vid
                max_back[vid] = max(max_back.get(vid, 0), operand.back)
    values_by_vid = {value.vid: value for value in loop.values}
    for vid, depth in max_back.items():
        value = values_by_vid[vid]
        kind = "icr" if value.dtype.is_predicate else "rr"
        table = (
            kernel.assignment.icr.specifiers
            if kind == "icr"
            else kernel.assignment.rr.specifiers
        )
        specifier = -table[vid]
        registers = files[kind]
        for j in range(-depth, 0):
            physical = (specifier - j) % len(registers)
            registers[physical] = _live_in_value(value, j, initial, init_fn)
