"""Kernel-only code generation for modulo-scheduled loops.

With rotating register files and predicated execution, a
modulo-scheduled loop needs *one* copy of the kernel — no prologue or
epilogue code (paper §2.2 / §2.3, schema from Rau et al. MICRO-25).
Each kernel row holds the operations issuing at that cycle mod II; an
operation scheduled at time ``t`` sits in row ``t mod II`` at stage
``t // II`` and is guarded by that stage's staging predicate, so the
pipeline fills and drains by enabling/disabling stages.

Register specifier encoding: for a value allocated rotating specifier
``s`` (see :mod:`repro.regalloc.rotating`), the *encoded* specifier is

* at its definition (stage sigma_def):  ``s + sigma_def``
* at a use ``back`` iterations later (stage sigma_use): ``s + sigma_use + back``

because the file rotates once per kernel iteration: by the time the use
issues, ``(sigma_use - sigma_def) + back`` rotations separate it from
the write.  The register-level simulator and the emitted assembly share
this encoding.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.ir.loop import LoopBody
from repro.ir.operations import Operation
from repro.ir.types import DType
from repro.ir.values import Operand, Value
from repro.core.schedule import Schedule
from repro.regalloc.files import RegisterAssignment, allocate_registers


@dataclasses.dataclass(frozen=True, slots=True)
class KernelOperand:
    """A register/immediate reference in kernel code.

    kind: "rr" (rotating data), "icr" (rotating predicate), "gpr"
    (invariant), or "imm" (literal folded into the instruction).
    """

    kind: str
    vid: int
    spec: int = 0  # encoded rotating specifier (rr/icr) or GPR index
    literal: Optional[float] = None

    def render(self) -> str:
        if self.kind == "imm":
            return f"#{self.literal}"
        if self.kind == "gpr":
            return f"gpr[{self.spec}]"
        return f"{self.kind}[p+{self.spec}]"


@dataclasses.dataclass(frozen=True, slots=True)
class KernelOp:
    """One operation slotted into the kernel."""

    op: Operation
    row: int
    stage: int
    unit: str
    dest: Optional[KernelOperand]
    operands: List[KernelOperand]
    predicate: Optional[KernelOperand]


@dataclasses.dataclass(slots=True)
class KernelCode:
    """A complete kernel: II rows of operations plus register-file sizes."""

    loop: LoopBody
    schedule: Schedule
    assignment: RegisterAssignment
    rows: List[List[KernelOp]]

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def stages(self) -> int:
        return self.schedule.stages

    def all_ops(self) -> List[KernelOp]:
        return [kop for row in self.rows for kop in row]


class CodegenError(RuntimeError):
    """The schedule/allocation pair cannot be lowered to a kernel."""


def generate_kernel(
    schedule: Schedule,
    assignment: Optional[RegisterAssignment] = None,
) -> KernelCode:
    """Lower a schedule (plus a register assignment) to kernel-only code."""
    loop = schedule.loop
    machine = schedule.machine
    if assignment is None:
        assignment = allocate_registers(schedule)
    ii = schedule.ii
    rows: List[List[KernelOp]] = [[] for _ in range(ii)]

    for op in loop.real_ops:
        time = schedule.times[op.oid]
        row, stage = time % ii, time // ii
        unit_class = machine.unit_class(op.opcode)
        unit = unit_class.name if unit_class is not None else "-"
        dest = _dest_operand(op.dest, stage, assignment) if op.dest is not None else None
        operands = [_use_operand(o, stage, assignment) for o in op.operands]
        predicate = (
            _use_operand(op.predicate, stage, assignment)
            if op.predicate is not None
            else None
        )
        rows[row].append(
            KernelOp(
                op=op,
                row=row,
                stage=stage,
                unit=unit,
                dest=dest,
                operands=operands,
                predicate=predicate,
            )
        )
    for row in rows:
        row.sort(key=lambda kop: (kop.unit, kop.op.oid))
    return KernelCode(loop=loop, schedule=schedule, assignment=assignment, rows=rows)


def _file_of(value: Value) -> str:
    if value.is_constant:
        return "imm"
    if value.is_invariant:
        return "gpr"
    return "icr" if value.dtype is DType.PRED else "rr"


def _base_specifier(value: Value, assignment: RegisterAssignment) -> int:
    """Base ISA specifier for a rotating value.

    The allocator places value arcs at ``start - s_alloc * II`` on the
    circle; the hardware's physical map is ``(s - k) mod R``, whose
    consistent arc position is ``start + s * II`` — so the ISA specifier
    is the *negated* allocator specifier.
    """
    table = assignment.icr.specifiers if value.dtype is DType.PRED else assignment.rr.specifiers
    try:
        return -table[value.vid]
    except KeyError:
        raise CodegenError(f"{value} has no rotating register assignment") from None


def _dest_operand(value: Value, stage: int, assignment: RegisterAssignment) -> KernelOperand:
    kind = _file_of(value)
    if kind != "rr" and kind != "icr":
        raise CodegenError(f"operation destination {value} must be a rotating variant")
    spec = _base_specifier(value, assignment) + stage
    return KernelOperand(kind=kind, vid=value.vid, spec=spec)


def _use_operand(operand: Operand, stage: int, assignment: RegisterAssignment) -> KernelOperand:
    value = operand.value
    kind = _file_of(value)
    if kind == "imm":
        return KernelOperand(kind="imm", vid=value.vid, literal=value.literal)
    if kind == "gpr":
        return KernelOperand(kind="gpr", vid=value.vid, spec=assignment.gpr[value.vid])
    spec = _base_specifier(value, assignment) + stage + operand.back
    return KernelOperand(kind=kind, vid=value.vid, spec=spec)
