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

Each kernel operation is lowered once per run by
:func:`repro.simulator.dataflow.lower_op`, with readers over immediates,
GPRs and rotating registers; its latency, destination file and live-out
name are looked up at the same time.  Running the kernel and comparing
memory plus live-out scalars against the sequential interpreter
validates scheduling, register allocation and code generation together.
(Affine load/store addresses are computed from the access attributes;
indirect accesses go through the address registers.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.kernel import KernelCode, KernelOp, KernelOperand
from repro.ir.operations import Opcode, Operation
from repro.ir.values import Operand
from repro.machine.machine import Machine
from repro.simulator.dataflow import (
    InitFn,
    Reader,
    SimulationError,
    Step,
    _fails,
    _invariant_value,
    _live_in_value,
    lower_op,
)
from repro.simulator.state import MachineState

#: A register file's physical registers; None marks one never written.
Registers = List[Optional[object]]

#: Where a kernel op's result goes: (file, encoded specifier, latency,
#: live-out scalar name or None).
Destination = Tuple[Registers, int, int, Optional[str]]


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

    # Pending register writes (file, physical, value), in issue order in
    # the bucket of their commit cycle modulo ``slots``; one slot more
    # than the largest latency keeps each write out of the bucket its
    # own cycle drains.
    latencies = [dest[2] for row in rows for *_, dest in row if dest is not None]
    slots = 1 + max(latencies, default=0)
    ring: List[List[Tuple[Registers, int, object]]] = [[] for _ in range(slots)]
    live_out_values: Dict[str, object] = {}
    last = iterations - 1
    loop_control = _LoopControl(stages, iterations)

    running = True
    m = 0
    while running:
        for row_index in range(ii):
            cycle = m * ii + row_index
            due = ring[cycle % slots]
            for registers, physical, value in due:
                registers[physical] = value
            due.clear()
            for op, stage, step, dest in rows[row_index]:
                if not loop_control.stage_active(stage, m):
                    continue  # stage predicate (rotating ICR bit) squashes
                k = m - stage
                if not (0 <= k < iterations):  # hardware/bookkeeping cross-check
                    raise SimulationError(
                        f"stage predicate enabled {op!r} for iteration {k} "
                        f"outside [0, {iterations}) — brtop loop control is broken"
                    )
                result = step(k)
                if dest is not None:
                    registers, spec, latency, live_out = dest
                    physical = (spec - m) % len(registers)
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
) -> Tuple[Operation, int, Step, Optional[Destination]]:
    """One kernel op, lowered: (op, stage, step, destination)."""
    op = kop.op
    encoding = {id(ir): encoded for ir, encoded in zip(op.operands, kop.operands)}
    if op.predicate is not None and kop.predicate is not None:
        encoding[id(op.predicate)] = kop.predicate

    def reader(operand: Operand) -> Reader:
        encoded = encoding.get(id(operand))
        if encoded is None:
            return _fails(f"operand {operand!r} of {op!r} not encoded")
        return _register_reader(encoded, op, kop.stage, files)

    step = lower_op(op, reader, state)
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
        dest = (registers, kop.dest.spec, latency, live_out)
    return op, kop.stage, step, dest


def _register_reader(
    encoded: KernelOperand, op: Operation, stage: int, files: Dict[str, Registers]
) -> Reader:
    """Read ``encoded`` in loop iteration k, i.e. kernel iteration k + stage."""
    if encoded.kind == "imm":
        literal = encoded.literal
        return lambda k: literal
    registers = files.get(encoded.kind)
    if registers is None:
        return _fails(f"no register file {encoded.kind!r}")
    spec, size = encoded.spec, len(registers)
    rotating = encoded.kind != "gpr"

    def read(k: int):
        m = k + stage
        value = registers[(spec - m) % size if rotating else spec % size]
        if value is None:
            raise SimulationError(
                f"{op!r} iteration {k}: read of {encoded.render()} "
                f"(physical {(spec - m) % size}) "
                "returned an unwritten register — allocation or codegen is broken"
            )
        return value

    return read


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
