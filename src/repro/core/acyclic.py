"""Straight-line (acyclic) scheduling: slack scheduling vs IPS (§8).

The paper closes its related work with: "Prior efforts at
lifetime-sensitive scheduling have been in the context of straight-line
code for conventional RISC processors [8, 3].  This work has advocated
Integrated Prepass Scheduling (IPS) within a list-scheduling framework.
IPS switches between a heuristic for avoiding pipeline interlock and a
heuristic for reducing register pressure, based on how close the
partial schedule is to a register pressure limit.  Yet the heuristic
for avoiding interlock ... can squander registers just as freely as
previous schedulers.  In contrast, the bidirectional slack-scheduling
framework, which can be applied to straight-line code as well as loops,
attempts to integrate lifetime sensitivity into the placement of each
operation.  Future experimentation may assess how well slack-scheduling
would work in the context where IPS has been studied."

This module runs that future experiment.  A basic block is a loop body
with its loop-carried arcs dropped (one iteration in isolation).  Three
schedulers compete:

* :func:`schedule_list` — classic cycle-driven list scheduling,
  priority = critical path (the pre-IPS baseline);
* :func:`schedule_ips` — Goodman/Hsu-style integrated prepass
  scheduling: critical-path mode (CSP) while live values sit below the
  register limit, pressure-reduction mode (CSR — prefer operations that
  free more registers than they allocate) once the limit is reached;
* :func:`schedule_slack` — the paper's bidirectional slack framework
  applied to straight-line code (an II large enough that the modulo
  constraint and all loop-carried arcs are inert).

All three return the block's makespan and its register pressure (peak
simultaneously-live values), measured identically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.bounds.analysis import LoopAnalysis
from repro.ir.ddg import DDG, build_ddg
from repro.ir.loop import LoopBody
from repro.ir.types import DType
from repro.machine.machine import Machine, UnitInstance
from repro.core.slack import SlackAttempt


@dataclasses.dataclass
class BlockSchedule:
    """Outcome of scheduling one basic block."""

    scheduler: str
    times: Dict[int, int]
    length: int  # makespan (Stop's issue cycle)
    pressure: int  # peak simultaneously-live RR values


def acyclic_ddg(loop: LoopBody, machine: Machine) -> DDG:
    """The block's dependence graph: loop-carried arcs dropped."""
    full = build_ddg(loop, machine)
    arcs = [arc for arc in full.arcs if arc.omega == 0]
    return DDG(loop, arcs, machine)


def block_pressure(loop: LoopBody, ddg: DDG, times: Dict[int, int]) -> int:
    """Peak live count over the block's time axis.

    A value is live from its definition's issue to its last same-block
    use; a value with no in-block uses (live-out of the block) stays
    live through the end of the schedule, charged identically to every
    scheduler.
    """
    if not times:
        return 0
    horizon = max(times.values()) + 1
    events: List[Tuple[int, int]] = []
    for value in loop.values:
        if not value.is_variant or value.dtype is DType.PRED:
            continue
        defop = value.defop
        if defop is None or defop.oid not in times:
            continue
        start = times[defop.oid]
        end = start
        used = False
        for arc in ddg.flow_outputs(defop):
            if arc.value is value and arc.dst in times:
                used = True
                end = max(end, times[arc.dst])
        if not used:
            end = horizon
        if end > start:
            events.append((start, +1))
            events.append((end, -1))
    events.sort()
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


# ----------------------------------------------------------------------
# Cycle-driven list scheduling (with the IPS mode switch)
# ----------------------------------------------------------------------
class _ListScheduler:
    def __init__(self, loop: LoopBody, machine: Machine, ddg: DDG,
                 pressure_limit: Optional[int]):
        self.loop = loop
        self.machine = machine
        self.ddg = ddg
        self.pressure_limit = pressure_limit
        self.binding = LoopAnalysis.of(ddg).binding
        self._priority = self._critical_paths()

    def _critical_paths(self) -> Dict[int, int]:
        """Longest latency path to Stop (the list-scheduling priority)."""
        order = self._topological()
        distance = {op.oid: 0 for op in self.loop.ops}
        for oid in reversed(order):
            for arc in self.ddg.succs[oid]:
                distance[oid] = max(
                    distance[oid], arc.latency + distance[arc.dst]
                )
        return distance

    def _topological(self) -> List[int]:
        indegree = {op.oid: 0 for op in self.loop.ops}
        for arc in self.ddg.arcs:
            indegree[arc.dst] += 1
        ready = sorted(oid for oid, count in indegree.items() if count == 0)
        order: List[int] = []
        while ready:
            oid = ready.pop(0)
            order.append(oid)
            for arc in sorted(self.ddg.succs[oid], key=lambda a: a.dst):
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    ready.append(arc.dst)
        ready.sort()
        return order

    def run(self) -> Dict[int, int]:
        loop, machine = self.loop, self.machine
        times: Dict[int, int] = {loop.start.oid: 0}
        unplaced: Set[int] = {op.oid for op in loop.ops} - {loop.start.oid}
        reservations: Dict[Tuple[UnitInstance, int], int] = {}
        uses_left: Dict[int, int] = {}  # vid -> remaining in-block uses
        for op in loop.ops:
            for operand in op.operands:
                if operand.value.is_variant and operand.back == 0:
                    uses_left[operand.value.vid] = uses_left.get(operand.value.vid, 0) + 1
        live: Set[int] = set()

        cycle = 0
        guard = 0
        while unplaced:
            guard += 1
            if guard > 10_000 + 100 * len(loop.ops):
                raise RuntimeError("list scheduler failed to make progress")
            ready = [
                oid
                for oid in unplaced
                if all(
                    arc.src in times for arc in self.ddg.preds[oid]
                )
                and self._data_ready(oid, times) <= cycle
            ]
            ready.sort(key=lambda oid: self._choose_key(oid, live, uses_left))
            for oid in ready:
                op = loop.ops[oid]
                if not self._fits(op, cycle, reservations):
                    continue
                self._reserve(op, cycle, reservations)
                times[oid] = cycle
                unplaced.discard(oid)
                # Liveness bookkeeping (scheduler-visible estimate).
                if op.dest is not None and op.dest.vid in uses_left:
                    live.add(op.dest.vid)
                for operand in op.operands:
                    vid = operand.value.vid
                    if operand.back == 0 and vid in uses_left:
                        uses_left[vid] -= 1
                        if uses_left[vid] <= 0:
                            live.discard(vid)
            cycle += 1
        return times

    def _data_ready(self, oid: int, times: Dict[int, int]) -> int:
        ready = 0
        for arc in self.ddg.preds[oid]:
            ready = max(ready, times[arc.src] + arc.latency)
        return ready

    def _choose_key(self, oid: int, live: Set[int], uses_left: Dict[int, int]):
        op = self.loop.ops[oid]
        csp_key = (-self._priority[oid], oid)
        if self.pressure_limit is None or len(live) < self.pressure_limit:
            return (0,) + csp_key
        # CSR mode: net register delta = +1 for a new def, -1 for each
        # operand this op kills (last remaining use).
        delta = 0
        if op.dest is not None and op.dest.vid in uses_left:
            delta += 1
        killed = set()
        for operand in op.operands:
            vid = operand.value.vid
            if operand.back == 0 and uses_left.get(vid, 0) == 1 and vid not in killed:
                delta -= 1
                killed.add(vid)
        return (1, delta) + csp_key

    def _fits(self, op, cycle, reservations) -> bool:
        unit = self.binding.get(op.oid)
        if unit is None:
            return True
        busy = self.machine.busy_cycles(op)
        return all((unit, cycle + extra) not in reservations for extra in range(busy))

    def _reserve(self, op, cycle, reservations) -> None:
        unit = self.binding.get(op.oid)
        if unit is None:
            return
        for extra in range(self.machine.busy_cycles(op)):
            reservations[(unit, cycle + extra)] = op.oid


def schedule_list(loop: LoopBody, machine: Machine, ddg: Optional[DDG] = None) -> BlockSchedule:
    """Classic critical-path list scheduling of a basic block."""
    ddg = ddg or acyclic_ddg(loop, machine)
    times = _ListScheduler(loop, machine, ddg, pressure_limit=None).run()
    return _result("list", loop, ddg, times)


def schedule_ips(
    loop: LoopBody,
    machine: Machine,
    ddg: Optional[DDG] = None,
    pressure_limit: int = 16,
) -> BlockSchedule:
    """Goodman/Hsu-style IPS: CSP until the live count hits the limit,
    then CSR (free-registers-first) until pressure recedes."""
    ddg = ddg or acyclic_ddg(loop, machine)
    times = _ListScheduler(loop, machine, ddg, pressure_limit=pressure_limit).run()
    return _result("ips", loop, ddg, times)


def schedule_slack(loop: LoopBody, machine: Machine, ddg: Optional[DDG] = None) -> BlockSchedule:
    """The bidirectional slack framework on straight-line code.

    Uses an II beyond any possible makespan, making the modulo resource
    constraint and the (already dropped) loop-carried arcs inert; the
    §4/§5 machinery — dynamic slack priority, bidirectional placement —
    operates unchanged.  Where the loop driver escalates II on a failed
    attempt, the straight-line driver escalates the *target makespan*
    (Lstart(Stop)): start at max(critical path, resource bound) and
    relax by ~15% per failed attempt.  The resource bound is the
    graph's ResMII (``LoopAnalysis.res_mii``).
    """
    from repro.core.framework import AttemptFailed

    ddg = ddg or acyclic_ddg(loop, machine)
    analysis = LoopAnalysis.of(ddg)
    horizon = 2 + sum(max(1, machine.latency(op)) for op in loop.real_ops)
    target: Optional[int] = None
    for _ in range(12):
        attempt = SlackAttempt(analysis, ii=max(horizon, 2), tight_cap=True)
        if target is None:
            target = max(attempt.lstart_cap, analysis.res_mii)
        attempt.lstart_cap = max(attempt.lstart_cap, target)
        attempt._bounds_dirty = True
        try:
            times = attempt.run()
            return _result("slack", loop, ddg, times)
        except AttemptFailed:
            target = int(target * 1.15) + 4
    raise RuntimeError(f"straight-line slack scheduling failed on {loop.name}")


def _result(name: str, loop: LoopBody, ddg: DDG, times: Dict[int, int]) -> BlockSchedule:
    return BlockSchedule(
        scheduler=name,
        times=times,
        length=times[loop.stop.oid],
        pressure=block_pressure(loop, ddg, times),
    )
