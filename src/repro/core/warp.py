"""Warp-style hierarchical scheduling (the §8 list-scheduling baseline).

From the paper's related work: "In order to dispense with backtracking
altogether, the Warp compiler special-cases recurrence circuits within
a list-scheduling framework.  In essence, the compiler fixes the
relative timing of the operations on a recurrence circuit before
scheduling the overall loop body.  By thus reducing each recurrence
circuit to a complex pseudo-operation, only acyclic dependencies
remain, which are easily dealt with."

Reproduced here:

1. every non-trivial SCC of the dependence graph (the components the
   graph's :class:`~repro.bounds.analysis.LoopAnalysis` holds, shared
   by every attempt) becomes a *macro node*
   whose members get fixed relative offsets (each member as early as
   possible relative to an anchor, i.e. longest internal paths at the
   target II);
2. the SCC condensation — a DAG — is list scheduled in topological
   order, each node placed at the earliest cycle satisfying its placed
   predecessors, scanning at most II cycles for a conflict-free slot in
   the modulo resource table (all members of a macro node must fit
   simultaneously);
3. there is no backtracking: if any node cannot be placed, the attempt
   fails and the driver escalates II.

The paper's criticism — "the early placement of all operations from a
recurrence circuit can be an unnecessary constraint on the scheduler" —
is exactly what the Table 3-style comparison benchmark shows: the
hierarchical scheduler misses MII more often than slack scheduling and
stretches lifetimes besides.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.bounds.analysis import LoopAnalysis
from repro.bounds.mindist import MinDist
from repro.machine.mrt import ModuloResourceTable
from repro.core.schedule import SchedulerStats
from repro.obs.observer import NULL_OBSERVER, Observer


@dataclasses.dataclass
class _MacroNode:
    """One schedulable unit: a singleton op or a condensed recurrence."""

    index: int
    members: List[int]  # oids
    offsets: Dict[int, int]  # oid -> fixed relative cycle


class WarpScheduler:
    """One fixed-II attempt of the hierarchical list scheduler."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        ii: int,
        observer: Optional[Observer] = None,
    ):
        observer = observer or NULL_OBSERVER
        self.trace = observer.trace
        self.loop = analysis.loop
        self.machine = analysis.machine
        self.ddg = analysis.ddg
        self.ii = ii
        self.binding = analysis.binding
        self.mindist = MinDist(self.ddg, ii, metrics=observer.metrics)
        if not self.mindist.feasible:
            raise ValueError(f"II={ii} is below RecMII for {self.loop.name}")
        self.mrt = ModuloResourceTable(self.machine, ii, self.binding)
        self.stats = SchedulerStats()
        self.infeasible_node = False
        self.nodes = self._build_nodes(analysis.components)

    # ------------------------------------------------------------------
    def _build_nodes(self, components: List[List[int]]) -> List[_MacroNode]:
        nodes = []
        for members in components:
            members = sorted(members)
            offsets = self._fix_relative_timing(members)
            if offsets is None:
                # The circuit itself cannot be packed at this II (e.g.
                # two same-unit members forced onto one modulo row).
                self.infeasible_node = True
                offsets = {oid: 0 for oid in members}
            nodes.append(_MacroNode(index=len(nodes), members=members, offsets=offsets))
        return nodes

    def _fix_relative_timing(self, members: List[int]) -> Optional[Dict[int, int]]:
        """Pre-schedule the circuit: fixed relative offsets for members.

        A greedy local list-schedule: members in longest-path order from
        the anchor, each placed at the earliest offset satisfying the
        (global, hence conservative) MinDist constraints against already
        placed members *and* a private modulo resource table holding
        only this circuit's members.  This is the Warp compiler's
        reduction of each recurrence circuit to one complex
        pseudo-operation with a fixed internal schedule.  Returns None
        when no conflict-free internal packing exists at this II.
        """
        if len(members) == 1:
            return {members[0]: 0}
        anchor = members[0]

        def anchor_distance(oid: int) -> int:
            distance = self.mindist.dist(anchor, oid)
            return distance if distance is not None else 0

        ordered = sorted(members, key=lambda oid: (anchor_distance(oid), oid))
        offsets: Dict[int, int] = {}
        table = ModuloResourceTable(self.machine, self.ii, self.binding)
        for oid in ordered:
            op = self.loop.ops[oid]
            lower = 0
            upper: Optional[int] = None
            for placed, placed_offset in offsets.items():
                forward = self.mindist.dist(placed, oid)
                if forward is not None:
                    lower = max(lower, placed_offset + forward)
                backward = self.mindist.dist(oid, placed)
                if backward is not None:
                    ceiling = placed_offset - backward
                    upper = ceiling if upper is None else min(upper, ceiling)
            chosen = None
            for offset in range(lower, lower + self.ii):
                if upper is not None and offset > upper:
                    break
                if table.fits(op, offset):
                    chosen = offset
                    break
            if chosen is None:
                return None
            offsets[oid] = chosen
            table.place(op, chosen)
        floor = min(offsets.values())
        return {oid: offset - floor for oid, offset in offsets.items()}

    # ------------------------------------------------------------------
    def run(self) -> Optional[Dict[int, int]]:
        """List schedule the condensation; None if any node fails."""
        if self.infeasible_node:
            if self.trace is not None:
                self.trace.emit({
                    "kind": "attempt_fail",
                    "ii": self.ii,
                    "reason": "a recurrence circuit cannot be packed at this II",
                })
            return None
        loop = self.loop
        node_of: Dict[int, _MacroNode] = {}
        for node in self.nodes:
            for oid in node.members:
                node_of[oid] = node

        # Topological order of the condensation by earliest start.
        order = self._topological_order(node_of)
        times: Dict[int, int] = {loop.start.oid: 0}
        if self.trace is not None:
            self.trace.emit(
                {"kind": "place", "oid": loop.start.oid, "cycle": 0, "forced": False}
            )

        for node in order:
            if node.members == [loop.start.oid]:
                continue
            earliest = self._earliest_start(node, times)
            placed_at = self._place_node(node, earliest)
            if placed_at is None:
                if self.trace is not None:
                    self.trace.emit({
                        "kind": "attempt_fail",
                        "ii": self.ii,
                        "reason": (
                            f"no conflict-free slot for node {node.members} "
                            f"at II={self.ii} (no backtracking)"
                        ),
                    })
                return None
            for oid in node.members:
                times[oid] = placed_at + node.offsets[oid]
                self.stats.placements += 1
                if self.trace is not None:
                    self.trace.emit(
                        {"kind": "place", "oid": oid, "cycle": times[oid], "forced": False}
                    )
        return times

    def _topological_order(self, node_of) -> List[_MacroNode]:
        indegree = {node.index: 0 for node in self.nodes}
        edges: Dict[int, set] = {node.index: set() for node in self.nodes}
        for arc in self.ddg.arcs:
            src_node = node_of[arc.src]
            dst_node = node_of[arc.dst]
            if src_node.index == dst_node.index:
                continue
            if dst_node.index not in edges[src_node.index]:
                edges[src_node.index].add(dst_node.index)
                indegree[dst_node.index] += 1
        ready = [node for node in self.nodes if indegree[node.index] == 0]
        order: List[_MacroNode] = []
        by_index = {node.index: node for node in self.nodes}
        while ready:
            # Deterministic: lowest smallest-member first.
            ready.sort(key=lambda node: node.members[0])
            node = ready.pop(0)
            order.append(node)
            for successor in sorted(edges[node.index]):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(by_index[successor])
        if len(order) != len(self.nodes):
            raise RuntimeError("condensation is not acyclic — SCCs are broken")
        return order

    def _earliest_start(self, node: _MacroNode, times: Dict[int, int]) -> int:
        earliest = 0
        for oid in node.members:
            member_offset = node.offsets[oid]
            for arc in self.ddg.preds[oid]:
                if arc.src in node.offsets and arc.src in node.members:
                    continue
                src_time = times.get(arc.src)
                if src_time is None:
                    continue
                needed = src_time + arc.latency - arc.omega * self.ii - member_offset
                earliest = max(earliest, needed)
        return earliest

    def _place_node(self, node: _MacroNode, earliest: int) -> Optional[int]:
        """Earliest base cycle >= earliest where every member fits.

        The node's joint resource footprint depends only on
        ``base mod II``, so II consecutive candidates are exhaustive: if
        none fits, no later cycle will either and the attempt fails
        (there is no backtracking in this framework).
        """
        for base in range(earliest, earliest + self.ii):
            if self._fits(node, base):
                for oid in node.members:
                    self.mrt.place(self.loop.ops[oid], base + node.offsets[oid])
                return base
            self.stats.forced += 1  # counted as wasted scan work
        return None

    def _fits(self, node: _MacroNode, base: int) -> bool:
        placed: List[Tuple[int, int]] = []
        for oid in node.members:
            op = self.loop.ops[oid]
            cycle = base + node.offsets[oid]
            if not self.mrt.fits(op, cycle):
                for done_oid, done_cycle in placed:
                    self.mrt.remove(self.loop.ops[done_oid], done_cycle)
                return False
            # Tentatively reserve so same-unit members see each other.
            self.mrt.place(op, cycle)
            placed.append((oid, cycle))
        for done_oid, done_cycle in placed:
            self.mrt.remove(self.loop.ops[done_oid], done_cycle)
        return True
