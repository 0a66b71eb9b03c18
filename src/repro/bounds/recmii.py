"""Recurrence-constrained lower bound on II (paper §3.1).

A recurrence circuit with total latency L and total distance Omega
forces ``II >= ceil(L / Omega)``.  Two independent computations are
provided and cross-checked by the test suite:

* :func:`recmii_by_circuits` enumerates the elementary circuits of the
  dependence graph (Johnson's algorithm, restricted to each strongly
  connected component) and scans them — the paper's approach, citing
  Tiernan.
* :func:`recmii_by_feasibility` finds the smallest II for which the cost
  graph ``latency - II * omega`` has no positive cycle — the minimum
  cost-to-time-ratio view the paper cites from Lawler.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.bounds.mindist import is_feasible_ii
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


def _adjacency(ddg: DDG) -> List[List[int]]:
    succs: List[Set[int]] = [set() for _ in range(ddg.n)]
    for arc in ddg.arcs:
        if arc.kind is ArcKind.SEQ:
            continue
        succs[arc.src].add(arc.dst)
    return [sorted(s) for s in succs]


def recurrence_ops(ddg: DDG) -> Set[int]:
    """Oids of operations on *non-trivial* recurrence circuits.

    A trivial recurrence is an arc from an operation to itself (§4);
    non-trivial circuits are exactly the nodes of SCCs of size >= 2.
    """
    succs = _adjacency(ddg)
    ops: Set[int] = set()
    for component in strongly_connected_components(ddg.n, succs):
        if len(component) >= 2:
            ops.update(component)
    return ops


# ----------------------------------------------------------------------
# Elementary circuit enumeration (Johnson's algorithm)
# ----------------------------------------------------------------------
class CircuitLimitExceeded(RuntimeError):
    """Raised when a graph has pathologically many elementary circuits."""


def elementary_circuits(
    n: int, succs: Sequence[Sequence[int]], limit: int = 50_000
) -> Iterator[List[int]]:
    """Yield the elementary circuits of a digraph as node lists.

    Johnson's algorithm run once per SCC.  Self-loops are yielded as
    single-node circuits.  Raises :class:`CircuitLimitExceeded` beyond
    ``limit`` circuits, at which point callers should fall back to the
    feasibility-search RecMII.
    """
    yielded = 0
    for node in range(n):
        if node in succs[node]:
            yield [node]
            yielded += 1
            if yielded > limit:
                raise CircuitLimitExceeded(f"more than {limit} circuits")

    for component in strongly_connected_components(n, succs):
        if len(component) < 2:
            continue
        members = sorted(component)
        member_set = set(members)
        local_succs = {
            node: [child for child in succs[node] if child in member_set and child != node]
            for node in members
        }
        for start in members:
            blocked: Dict[int, bool] = {node: False for node in members}
            blocked_map: Dict[int, Set[int]] = {node: set() for node in members}
            path: List[int] = [start]

            def unblock(node: int) -> None:
                pending = [node]
                while pending:
                    current = pending.pop()
                    if not blocked[current]:
                        continue
                    blocked[current] = False
                    pending.extend(blocked_map[current])
                    blocked_map[current].clear()

            # Iterative Johnson circuit search from `start`, visiting
            # only nodes >= start to enumerate each circuit once.
            blocked[start] = True
            frame_stack: List[Tuple[int, Iterator[int]]] = [
                (start, iter([c for c in local_succs[start] if c >= start]))
            ]
            found_flags: List[bool] = [False]
            while frame_stack:
                node, children = frame_stack[-1]
                emitted = False
                for child in children:
                    if child == start:
                        yield list(path)
                        yielded += 1
                        if yielded > limit:
                            raise CircuitLimitExceeded(f"more than {limit} circuits")
                        found_flags[-1] = True
                    elif not blocked[child]:
                        path.append(child)
                        blocked[child] = True
                        frame_stack.append(
                            (child, iter([c for c in local_succs[child] if c >= start]))
                        )
                        found_flags.append(False)
                        emitted = True
                        break
                if emitted:
                    continue
                frame_stack.pop()
                found = found_flags.pop()
                path.pop()
                if found:
                    unblock(node)
                    if found_flags:
                        found_flags[-1] = True
                else:
                    for child in local_succs[node]:
                        if child >= start:
                            blocked_map[child].add(node)


def _pareto_arcs(candidates: List[Arc]) -> List[Tuple[int, int]]:
    """Non-dominated (latency, omega) pairs among parallel arcs.

    Arc a dominates arc b when it is at least as constraining on every
    circuit through this hop: ``latency_a >= latency_b`` and
    ``omega_a <= omega_b``.  Dominated arcs can never change a circuit's
    maximum ceil(L / Omega).
    """
    pairs = sorted({(arc.latency, arc.omega) for arc in candidates})
    kept: List[Tuple[int, int]] = []
    for latency, omega in pairs:
        kept = [(l, w) for (l, w) in kept if not (latency >= l and omega <= w)]
        if not any(l >= latency and w <= omega for (l, w) in kept):
            kept.append((latency, omega))
    return kept


def _circuit_bound(
    arc_index: Dict[Tuple[int, int], List[Tuple[int, int]]],
    circuit: List[int],
    combo_limit: int = 256,
) -> int:
    """Max ceil(L / Omega) over all arc choices along one circuit.

    Each hop may carry several non-dominated parallel arcs (e.g. a flow
    arc plus a memory-ordering arc); the binding combination cannot be
    found per hop, so the Pareto choices are enumerated, with a cap that
    triggers the feasibility-search fallback on pathological inputs.
    """
    hops = len(circuit)
    choices = [
        arc_index[(circuit[position], circuit[(position + 1) % hops])]
        for position in range(hops)
    ]
    combos = 1
    for hop_choices in choices:
        combos *= len(hop_choices)
        if combos > combo_limit:
            raise CircuitLimitExceeded("too many parallel-arc combinations")
    best = 0
    totals: List[Tuple[int, int]] = [(0, 0)]
    for hop_choices in choices:
        totals = [
            (latency_sum + latency, omega_sum + omega)
            for latency_sum, omega_sum in totals
            for latency, omega in hop_choices
        ]
    for latency_sum, omega_sum in totals:
        if omega_sum == 0:
            raise StaticCycleError(f"zero-distance circuit through oids {circuit}")
        best = max(best, math.ceil(latency_sum / omega_sum))
    return best


def recmii_by_circuits(ddg: DDG, limit: int = 50_000) -> int:
    """RecMII by scanning each elementary circuit (paper's method)."""
    succs = _adjacency(ddg)
    arc_index: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    grouped: Dict[Tuple[int, int], List[Arc]] = {}
    for arc in ddg.arcs:
        if arc.kind is ArcKind.SEQ:
            continue
        grouped.setdefault((arc.src, arc.dst), []).append(arc)
    for key, candidates in grouped.items():
        arc_index[key] = _pareto_arcs(candidates)
    bound = 1
    for circuit in elementary_circuits(ddg.n, succs, limit=limit):
        bound = max(bound, _circuit_bound(arc_index, circuit))
    return bound


def recmii_by_feasibility(ddg: DDG) -> int:
    """RecMII as the smallest II with no positive-cost dependence cycle."""
    lo = 1
    hi = 1 + sum(arc.latency for arc in ddg.arcs if arc.kind is not ArcKind.SEQ)
    if is_feasible_ii(ddg, lo):
        return lo
    if not is_feasible_ii(ddg, hi):
        raise StaticCycleError("no feasible II: the DDG has a zero-distance circuit")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if is_feasible_ii(ddg, mid):
            hi = mid
        else:
            lo = mid
    return hi


def recmii(ddg: DDG) -> int:
    """RecMII; prefers circuit scanning, falls back to feasibility search.

    Not memoized here: :attr:`repro.bounds.analysis.LoopAnalysis.rec_mii`
    keeps the graph's bound.
    """
    try:
        return recmii_by_circuits(ddg)
    except CircuitLimitExceeded:
        return recmii_by_feasibility(ddg)
