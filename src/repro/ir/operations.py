"""Operations of the loop IR.

Opcodes are machine-neutral; the machine description
(:mod:`repro.machine`) maps each opcode to a functional-unit class and a
latency (Table 1 of the paper).  ``START``/``STOP`` are the
pseudo-operations the scheduler adds so that Estart/Lstart are well
defined for every operation (paper §4.1); ``BRTOP`` is the Cydra-style
loop-closing branch that also rotates the register files (§2.1).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from repro.ir.values import Operand, Value


class Opcode(enum.Enum):
    """Machine-neutral operation codes."""

    # Pseudo ops (consume no machine resources).
    START = "start"
    STOP = "stop"

    # Address arithmetic (Address ALU).
    ADDR_ADD = "addra"
    ADDR_SUB = "subba"
    ADDR_MUL = "mula"

    # Integer / logical / float add-class ops (Adder).
    ADD_I = "addi"
    SUB_I = "subi"
    AND_B = "and"
    OR_B = "or"
    XOR_B = "xor"
    NOT_B = "not"
    ADD_F = "addf"
    SUB_F = "subf"
    ABS_F = "absf"
    NEG_F = "negf"
    MIN_F = "minf"
    MAX_F = "maxf"
    SELECT = "select"  # conditional move: dest = p ? a : b
    CMP_LT = "cmplt"
    CMP_LE = "cmple"
    CMP_GT = "cmpgt"
    CMP_GE = "cmpge"
    CMP_EQ = "cmpeq"
    CMP_NE = "cmpne"

    # Multiplies (Multiplier).
    MUL_I = "muli"
    MUL_F = "mulf"

    # Divider (non-pipelined).
    DIV_I = "divi"
    DIV_F = "divf"
    MOD_I = "modi"
    SQRT_F = "sqrtf"

    # Memory port.
    LOAD = "load"
    STORE = "store"

    # Branch unit.
    BRTOP = "brtop"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes that compare two numbers and produce a predicate.
COMPARE_OPCODES = frozenset(
    {
        Opcode.CMP_LT,
        Opcode.CMP_LE,
        Opcode.CMP_GT,
        Opcode.CMP_GE,
        Opcode.CMP_EQ,
        Opcode.CMP_NE,
    }
)

#: Opcodes with side effects (may never be dead-code eliminated).
SIDE_EFFECT_OPCODES = frozenset({Opcode.STORE, Opcode.BRTOP, Opcode.START, Opcode.STOP})

#: Opcodes executed by the non-pipelined divider.
DIVIDER_OPCODES = frozenset({Opcode.DIV_I, Opcode.DIV_F, Opcode.MOD_I, Opcode.SQRT_F})


@dataclasses.dataclass(eq=False, slots=True)
class Operation:
    """One operation of the loop body.

    Attributes:
        oid: Dense integer id, unique within a loop body; doubles as the
            operation's row/column index in DDG matrices.
        opcode: What the operation does.
        dest: The SSA value it defines, or ``None`` (stores, branches,
            pseudo ops).
        operands: Input operands in positional order.
        predicate: Optional guarding predicate operand (ICR).  A false
            predicate squashes the operation (paper §2.2).
        attrs: Free-form metadata.  Used keys include ``array`` and
            ``disp`` on LOAD/STORE (the symbolic array being accessed and
            the constant displacement folded into the access), and
            ``src_stmt`` for provenance.
    """

    oid: int
    opcode: Opcode
    dest: Optional[Value] = None
    operands: List[Operand] = dataclasses.field(default_factory=list)
    predicate: Optional[Operand] = None
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRTOP

    @property
    def uses_divider(self) -> bool:
        return self.opcode in DIVIDER_OPCODES

    @property
    def has_side_effect(self) -> bool:
        return self.opcode in SIDE_EFFECT_OPCODES

    def inputs(self) -> List[Operand]:
        """All value inputs, including the guarding predicate if any."""
        if self.predicate is None:
            return list(self.operands)
        return list(self.operands) + [self.predicate]

    def __repr__(self) -> str:
        dest = f"{self.dest.name} = " if self.dest is not None else ""
        args = ", ".join(repr(o) for o in self.operands)
        pred = f" if {self.predicate!r}" if self.predicate is not None else ""
        return f"[{self.oid}] {dest}{self.opcode.value}({args}){pred}"
