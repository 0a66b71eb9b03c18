"""Whole-loop register assignment across the three register files.

Combines the rotating allocator (RR for data variants, ICR for
predicates) with trivial sequential assignment of loop invariants to the
GPR file, producing everything code generation and the register-level
simulator need.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from repro.bounds.lifetimes import icr_values, rr_values, schedule_lifetimes
from repro.ir.ddg import DDG, build_ddg
from repro.ir.loop import LoopBody
from repro.core.schedule import Schedule
from repro.regalloc.rotating import Allocation, allocate_rotating


@dataclasses.dataclass
class RegisterAssignment:
    """Complete register assignment for one scheduled loop."""

    rr: Allocation  # rotating data registers
    icr: Allocation  # rotating predicates
    gpr: Dict[int, int]  # invariant vid -> GPR index

    @property
    def rr_registers(self) -> int:
        return self.rr.registers

    @property
    def icr_registers(self) -> int:
        return self.icr.registers

    @property
    def gpr_registers(self) -> int:
        return len(self.gpr)


def _loop_carried_vids(loop: LoopBody) -> Set[int]:
    """Vids of the variant values some op reads ``back > 0`` iterations
    after their definition."""
    return {
        operand.value.vid
        for op in loop.ops
        for operand in op.inputs()
        if operand.back > 0 and operand.value.is_variant
    }


def _extend_live_ins(lifetimes, carried: Set[int], ii: int):
    """Extend loop-carried values' lifetimes for kernel-only live-ins.

    A value consumed ``back`` iterations later has pre-loop instances
    that the preheader loads into rotating registers *before* cycle 0.
    Those registers must survive untouched from before the loop until
    consumed, which in the circular-arc model means the value's
    canonical arc extends backward to cycle II - 1 (instance -1's
    protection window then covers cycle -1, the preheader write; deeper
    instances' windows are subsets).  Without this, a legal steady-state
    allocation can clobber a preloaded live-in during the pipeline fill
    — the classic live-in extension of Rau et al.  ``carried`` is
    :func:`_loop_carried_vids` of the loop.
    """
    horizon = max(0, ii - 1)
    extended = []
    for lifetime in lifetimes:
        if lifetime.value.vid in carried and lifetime.start > horizon:
            extended.append(
                type(lifetime)(value=lifetime.value, start=horizon, end=lifetime.end)
            )
        else:
            extended.append(lifetime)
    return extended


def allocate_registers(
    schedule: Schedule,
    ddg: Optional[DDG] = None,
    fit: str = "end_fit",
    ordering: str = "adjacency",
) -> RegisterAssignment:
    """Allocate RR, ICR and GPR registers for a scheduled loop."""
    loop = schedule.loop
    if ddg is None:
        ddg = build_ddg(loop, schedule.machine)
    times, ii = schedule.times, schedule.ii
    carried = _loop_carried_vids(loop)

    rr_lifetimes = _extend_live_ins(
        schedule_lifetimes(loop, ddg, times, ii, rr_values(loop)), carried, ii
    )
    rr = allocate_rotating(rr_lifetimes, ii, fit=fit, ordering=ordering)

    icr_lifetimes = _extend_live_ins(
        schedule_lifetimes(loop, ddg, times, ii, icr_values(loop)), carried, ii
    )
    icr = allocate_rotating(icr_lifetimes, ii, fit=fit, ordering=ordering)

    gpr: Dict[int, int] = {}
    for value in loop.values:
        if value.is_invariant:
            gpr[value.vid] = len(gpr)
    return RegisterAssignment(rr=rr, icr=icr, gpr=gpr)
