"""Placement-independent loop analysis: one object per dependence graph.

Before it places anything, the scheduler reads only facts that do not
depend on the schedule: MII = max(ResMII, RecMII) and the recurrence
components (§3.1), the unit binding and critical ops (§4.3), the MinDist
closure at each II (§4.1), MinLT (§5.1) and the §5.2 lifetime-stretch
tables.  A :class:`LoopAnalysis` is the one producer of each: it
computes the fact on first use and keeps it, so escalating IIs, every
scheduler, ``min_avg`` and the corpus runner's metrics share one copy.
Anything that touches ``times``, Estart or Lstart belongs to the
scheduling attempt instead.

There is one analysis per :class:`~repro.ir.ddg.DDG`, not per (loop,
machine): :func:`~repro.core.acyclic.acyclic_ddg` builds a second graph
for the same pair, and its bounds differ.  The graph owns its analysis,
which refers back to it only weakly, so reference counting alone frees
a dropped graph and its closure matrices; no cyclic garbage is left.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.bounds.lifetimes import min_lifetime
from repro.bounds.mindist import MinDist, compute_closure
from repro.bounds.recmii import recmii, strongly_connected_components
from repro.bounds.resmii import resmii
from repro.ir.ddg import DDG, ArcKind
from repro.ir.loop import LoopBody
from repro.ir.operations import Operation
from repro.ir.types import DType
from repro.machine.machine import Machine


def _is_rr_flow_value(value) -> bool:
    return value is not None and value.is_variant and value.dtype is not DType.PRED


def critical_unit_instances(
    loop: LoopBody,
    machine: Machine,
    binding: Dict[int, Tuple[int, int]],
    ii: int,
    threshold: float = 0.90,
) -> "set[Tuple[int, int]]":
    """Unit instances that one iteration keeps busy >= threshold * II.

    The paper marks an operation *critical* if it uses a critical
    resource; critical resources are recomputed just before each
    attempted II (§4.3).
    """
    usage: Dict[Tuple[int, int], int] = {}
    for op in loop.ops:
        unit = binding.get(op.oid)
        if unit is None:
            continue
        usage[unit] = usage.get(unit, 0) + machine.busy_cycles(op)
    return {unit for unit, busy in usage.items() if busy >= threshold * ii}


class LoopAnalysis:
    """The schedule-independent facts about one dependence graph.

    ``res_mii``, ``rec_mii``, ``components``, ``recurrence_ops`` and
    ``binding`` are computed once; :meth:`closure`, :meth:`minlt` and
    :meth:`stretch_tables` once per II; :meth:`critical_ops` once per
    (II, threshold); :meth:`neighbors` once per op.  Callers must treat
    every returned container as read-only.
    """

    def __init__(self, ddg: DDG):
        self._ddg = weakref.ref(ddg)
        self.loop = ddg.loop
        self.machine = ddg.machine
        self._closures: Dict[int, Tuple[np.ndarray, bool]] = {}
        self._minlt: Dict[int, Dict[int, int]] = {}
        self._stretch: Dict[int, tuple] = {}
        self._critical: Dict[Tuple[int, float], FrozenSet[int]] = {}
        self._neighbors: Dict[int, Tuple[List[int], List[int]]] = {}

    @classmethod
    def of(cls, ddg: DDG) -> "LoopAnalysis":
        """The graph's analysis, created on first use."""
        analysis = ddg.analysis
        if analysis is None:
            analysis = ddg.analysis = cls(ddg)
        return analysis

    @property
    def ddg(self) -> DDG:
        ddg = self._ddg()
        if ddg is None:
            raise ReferenceError("the dependence graph of this analysis was freed")
        return ddg

    # ------------------------------------------------------------------
    # Once per graph
    # ------------------------------------------------------------------
    @cached_property
    def res_mii(self) -> int:
        return resmii(self.loop, self.machine)

    @cached_property
    def rec_mii(self) -> int:
        return recmii(self.ddg)

    @property
    def mii(self) -> int:
        """MII = max(ResMII, RecMII): the absolute lower bound on II."""
        return max(self.res_mii, self.rec_mii)

    @cached_property
    def binding(self):
        """The §4.3 unit-binding prepass, ``oid -> unit instance``."""
        return self.machine.bind_units(self.loop)

    @cached_property
    def components(self) -> List[List[int]]:
        """The SCCs of the non-SEQ arcs, singletons included, in
        Tarjan's order: the graph's one whole-graph SCC pass.  Those of
        two or more ops hold the non-trivial recurrence circuits."""
        ddg = self.ddg
        succs: List[Set[int]] = [set() for _ in range(ddg.n)]
        for arc in ddg.arcs:
            if arc.kind is not ArcKind.SEQ:
                succs[arc.src].add(arc.dst)
        return strongly_connected_components(ddg.n, [sorted(s) for s in succs])

    @cached_property
    def recurrence_ops(self) -> Set[int]:
        """Oids on *non-trivial* recurrence circuits; an arc from an op
        to itself is a trivial one (§4)."""
        return {oid for members in self.components if len(members) >= 2 for oid in members}

    @cached_property
    def _cost_bases(self) -> Tuple[np.ndarray, ...]:
        """Per-arc (src, dst, latency, omega) int64 arrays: the MinDist
        cost at any II is ``latency - omega * II``, so escalated IIs
        rebuild costs without re-scanning the arcs."""
        arcs = self.ddg.arcs
        return tuple(
            np.fromiter((getattr(arc, field) for arc in arcs), dtype=np.int64, count=len(arcs))
            for field in ("src", "dst", "latency", "omega")
        )

    # ------------------------------------------------------------------
    # Once per II
    # ------------------------------------------------------------------
    def critical_ops(self, ii: int, threshold: float = 0.90) -> FrozenSet[int]:
        """Oids bound to a unit instance that an iteration keeps busy
        >= ``threshold * ii``: §4.3 marks them before each attempted II."""
        key = (ii, threshold)
        if key not in self._critical:
            binding = self.binding
            units = critical_unit_instances(self.loop, self.machine, binding, ii, threshold)
            self._critical[key] = frozenset(oid for oid, unit in binding.items() if unit in units)
        return self._critical[key]

    def has_closure(self, ii: int) -> bool:
        return ii in self._closures

    def closure(self, ii: int) -> Tuple[np.ndarray, bool]:
        """The read-only MinDist matrix at ``ii`` and whether ``ii`` is
        feasible (no positive-cost dependence circuit)."""
        entry = self._closures.get(ii)
        if entry is None:
            matrix, feasible = compute_closure(self.loop.n_ops, self._cost_bases, ii)
            matrix.setflags(write=False)
            entry = self._closures[ii] = (matrix, feasible)
        return entry

    def minlt(self, ii: int) -> Dict[int, int]:
        """MinLT (§5.1) per loop-variant value id at ``ii``."""
        table = self._minlt.get(ii)
        if table is None:
            ddg = self.ddg
            mindist = MinDist(ddg, ii)
            table = self._minlt[ii] = {
                value.vid: min_lifetime(value, ddg, mindist, ii)
                for value in self.loop.values
                if value.is_variant and value.defop is not None
            }
        return table

    def stretch_tables(self, ii: int) -> tuple:
        """The §5.2 per-op lifetime-stretch facts at ``ii``, as
        ``(inputs, outputs)``: ``inputs[oid]`` lists ``(def oid,
        MinLT(v) - omega*II)`` per input value a placement of the op
        could stretch, and ``outputs[oid]`` is 1 iff another op consumes
        its RR result.

        Which inputs a placement does stretch depends on the current
        bounds; the candidates (distinct RR flow inputs, first arc per
        value, self-recurrences excluded) and their constants do not.
        """
        tables = self._stretch.get(ii)
        if tables is None:
            ddg = self.ddg
            minlt = self.minlt(ii)
            inputs: List[List[Tuple[int, int]]] = []
            outputs: List[int] = []
            for op in self.loop.ops:
                seen = set()
                entries = []
                for arc in ddg.preds[op.oid]:
                    if arc.kind is not ArcKind.FLOW:
                        continue
                    value = arc.value
                    if not _is_rr_flow_value(value) or value.vid in seen:
                        continue
                    if arc.src == op.oid:
                        continue  # self-recurrence: length fixed at omega*II
                    seen.add(value.vid)
                    entries.append((arc.src, minlt.get(value.vid, 0) - arc.omega * ii))
                inputs.append(entries)
                # In SSA, placing an op early stretches its output; the
                # output counts whenever another op consumes the value.
                value = op.dest
                consumed = _is_rr_flow_value(value) and any(
                    arc.value is value and arc.dst != op.oid for arc in ddg.flow_outputs(op)
                )
                outputs.append(int(consumed))
            tables = self._stretch[ii] = (inputs, outputs)
        return tables

    # ------------------------------------------------------------------
    # Once per op
    # ------------------------------------------------------------------
    def neighbors(self, op: Operation) -> Tuple[List[int], List[int]]:
        """Immediate (predecessor oids, successor oids) of ``op``,
        excluding Start/Stop sequencing arcs and self arcs."""
        oid = op.oid
        entry = self._neighbors.get(oid)
        if entry is None:
            ddg = self.ddg
            preds = {arc.src for arc in ddg.preds[oid] if arc.kind is not ArcKind.SEQ}
            succs = {arc.dst for arc in ddg.succs[oid] if arc.kind is not ArcKind.SEQ}
            entry = self._neighbors[oid] = (sorted(preds - {oid}), sorted(succs - {oid}))
        return entry
