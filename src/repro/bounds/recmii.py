"""Recurrence-constrained lower bound on II (paper §3.1).

A recurrence circuit with total latency L and total distance Omega
forces ``II >= ceil(L / Omega)``; RecMII is the largest such bound.  The
paper computes it either by scanning the elementary circuits (citing
Tiernan) or as a minimum cost-to-time ratio (citing Lawler).
:func:`recmii` takes Lawler's view, the smallest II at which the cost
graph ``latency - omega * II`` has no positive cycle, and searches it one
strongly connected component at a time.  That is exact:

* ``omega >= 0``, so no arc cost rises with II and feasibility is
  monotone in II: a binary search finds the smallest feasible II.
* Every circuit lies inside one component, and a self-arc is a one-op
  circuit.  So RecMII is the largest of the self-arc floor
  ``max ceil(latency / omega)`` and each component's smallest feasible
  II, and each component's search may start at the running maximum.
* Within a component, ``II = 1 + the sum of its arc latencies`` is
  feasible when every circuit has Omega >= 1.

The components are the graph's ``LoopAnalysis.components``; only the
zero-distance check runs Tarjan again, on one component's arcs.

A circuit with Omega = 0 means the loop body is malformed.  It is found
from the distances alone, as a zero-distance self-arc or a cycle of
zero-distance arcs: one of total latency 0 costs 0 at every II, so no
positive cycle would reveal it.  Start/Stop sequencing arcs are left
out; they only run Start -> op -> Stop, so they close no circuit.

The test suite keeps the circuit scan (Johnson's enumeration with the
per-circuit bound over parallel arcs) as the oracle for this search.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.bounds.mindist import compute_closure
from repro.ir.ddg import DDG, Arc, ArcKind


class StaticCycleError(ValueError):
    """A dependence circuit with total distance 0 — the loop body is
    malformed (an operation would depend on itself within one iteration)."""


# ----------------------------------------------------------------------
# Strongly connected components (iterative Tarjan)
# ----------------------------------------------------------------------
def strongly_connected_components(n: int, succs: Sequence[Sequence[int]]) -> List[List[int]]:
    """Tarjan's SCC algorithm, iterative to avoid recursion limits."""
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = succs[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if index_of[child] == -1:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


# ----------------------------------------------------------------------
# RecMII
# ----------------------------------------------------------------------
def _component_recmii(members: List[int], arcs: List[Arc], floor: int) -> int:
    """Smallest II >= ``floor`` with no positive cycle among the arcs
    inside one recurrence component."""
    local = {oid: index for index, oid in enumerate(members)}
    inner = [
        (local[arc.src], local[arc.dst], arc.latency, arc.omega)
        for arc in arcs
        if arc.src != arc.dst and arc.src in local and arc.dst in local
    ]
    zero_distance: List[List[int]] = [[] for _ in members]
    for src, dst, _, omega in inner:
        if omega == 0:
            zero_distance[src].append(dst)
    if any(len(c) >= 2 for c in strongly_connected_components(len(members), zero_distance)):
        raise StaticCycleError(f"zero-distance circuit among oids {sorted(members)}")
    bases = tuple(np.array(inner, dtype=np.int64).T)

    def feasible(ii: int) -> bool:
        return compute_closure(len(members), bases, ii)[1]

    if feasible(floor):
        return floor
    infeasible, lowest = floor, 1 + sum(latency for _, _, latency, _ in inner)
    while lowest - infeasible > 1:
        mid = (infeasible + lowest) // 2
        if feasible(mid):
            lowest = mid
        else:
            infeasible = mid
    return lowest


def recmii(ddg: DDG) -> int:
    """RecMII: the self-arc floor raised by each recurrence component's
    smallest feasible II.

    Not memoized here: :attr:`repro.bounds.analysis.LoopAnalysis.rec_mii`
    keeps the graph's bound.
    """
    from repro.bounds.analysis import LoopAnalysis  # imports this module

    arcs = [arc for arc in ddg.arcs if arc.kind is not ArcKind.SEQ]
    bound = 1
    for arc in arcs:
        if arc.src == arc.dst:
            if arc.omega == 0:
                raise StaticCycleError(f"zero-distance self-arc on oid {arc.src}")
            bound = max(bound, -(-arc.latency // arc.omega))
    for members in LoopAnalysis.of(ddg).components:
        if len(members) >= 2:
            bound = _component_recmii(members, arcs, bound)
    return bound
