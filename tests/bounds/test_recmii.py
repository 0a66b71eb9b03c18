"""RecMII (paper §3.1): the per-component feasibility search in
:func:`repro.bounds.recmii` against a circuit-scanning oracle.

The paper computes RecMII two ways: by scanning every elementary
dependence circuit (citing Tiernan) or as Lawler's minimum cost-to-time
ratio.  ``src/`` keeps the second.  This module keeps the first as the
oracle: Johnson's circuit enumeration and the Pareto per-circuit bound
below.  It imports neither ``strongly_connected_components`` nor
``compute_closure``, so a bug in either cannot certify itself.

``recmii_paper_corpus.json`` pins RecMII on every loop of
``paper_corpus(seed=1993)`` on every registry target; the records come
from :func:`recmii_records`.
"""

import json
import math
import pathlib
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bounds import LoopAnalysis, StaticCycleError, recmii
from repro.frontend import compile_loop
from repro.ir import ArcKind, DType, LoopBody, Opcode, Operand, build_ddg
from repro.ir.ddg import DDG, Arc
from repro.machine import build_machine, machine_names
from repro.workloads import named_kernels, paper_corpus

from tests.conftest import build_accumulator_loop, build_figure1_loop, on_targets

FIXTURE = pathlib.Path(__file__).with_name("recmii_paper_corpus.json")

#: The oracle gives up beyond this many circuits, or beyond this many
#: parallel-arc combinations on one circuit; a graph it gives up on is
#: skipped, never counted as passed.
CIRCUIT_LIMIT = 50_000
COMBO_LIMIT = 256


# ----------------------------------------------------------------------
# The oracle: Johnson's elementary circuits, Pareto bound per circuit
# ----------------------------------------------------------------------
class OracleGaveUp(RuntimeError):
    """The graph has more circuits or arc combinations than the caps."""


def _reach(start: int, edges: Sequence[Sequence[int]], allowed: Set[int]) -> Set[int]:
    seen = {start}
    pending = [start]
    while pending:
        for child in edges[pending.pop()]:
            if child in allowed and child not in seen:
                seen.add(child)
                pending.append(child)
    return seen


def elementary_circuits(
    n: int, succs: Sequence[Sequence[int]], limit: int = CIRCUIT_LIMIT
) -> Iterator[List[int]]:
    """Yield each elementary circuit of a digraph once, as a node list.

    Johnson's algorithm: for each ``start`` in order, find the circuits
    through ``start`` among nodes ``>= start`` that both reach and are
    reached from it (found by plain reachability, not Tarjan).
    Self-loops are single-node circuits.  Raises :class:`OracleGaveUp`
    beyond ``limit`` circuits.
    """
    preds: List[List[int]] = [[] for _ in range(n)]
    for node in range(n):
        for child in succs[node]:
            preds[child].append(node)
    yielded = 0
    for start in range(n):
        if start in succs[start]:
            yield [start]
            yielded += 1
            if yielded > limit:
                raise OracleGaveUp(f"more than {limit} circuits")
        later = set(range(start, n))
        members = _reach(start, succs, later) & _reach(start, preds, later)
        local = {
            node: [child for child in succs[node] if child in members and child != node]
            for node in members
        }
        blocked = {node: False for node in members}
        blocked_by: Dict[int, Set[int]] = {node: set() for node in members}
        path = [start]
        blocked[start] = True
        frames: List[Tuple[int, Iterator[int]]] = [(start, iter(local[start]))]
        found = [False]
        while frames:
            node, children = frames[-1]
            descended = False
            for child in children:
                if child == start:
                    yield list(path)
                    yielded += 1
                    if yielded > limit:
                        raise OracleGaveUp(f"more than {limit} circuits")
                    found[-1] = True
                elif not blocked[child]:
                    path.append(child)
                    blocked[child] = True
                    frames.append((child, iter(local[child])))
                    found.append(False)
                    descended = True
                    break
            if descended:
                continue
            frames.pop()
            path.pop()
            if found.pop():
                pending = [node]
                while pending:
                    current = pending.pop()
                    if blocked[current]:
                        blocked[current] = False
                        pending.extend(blocked_by[current])
                        blocked_by[current].clear()
                if found:
                    found[-1] = True
            else:
                for child in local[node]:
                    blocked_by[child].add(node)


def pareto_arcs(candidates: List[Arc]) -> List[Tuple[int, int]]:
    """Non-dominated (latency, omega) pairs among parallel arcs.

    Arc a dominates arc b when ``latency_a >= latency_b`` and
    ``omega_a <= omega_b``: no circuit's ceil(L / Omega) can then rise
    by taking b instead of a.
    """
    kept: List[Tuple[int, int]] = []
    for latency, omega in sorted({(arc.latency, arc.omega) for arc in candidates}):
        kept = [(l, w) for (l, w) in kept if not (latency >= l and omega <= w)]
        if not any(l >= latency and w <= omega for (l, w) in kept):
            kept.append((latency, omega))
    return kept


def circuit_bound(
    choices_by_hop: Dict[Tuple[int, int], List[Tuple[int, int]]], circuit: List[int]
) -> int:
    """Max ceil(L / Omega) over every arc choice along one circuit.

    The binding choice cannot be made hop by hop (a flow arc and a
    parallel memory arc trade latency for distance), so every
    combination of non-dominated arcs is tried.
    """
    hops = len(circuit)
    choices = [
        choices_by_hop[(circuit[position], circuit[(position + 1) % hops])]
        for position in range(hops)
    ]
    if math.prod(len(hop) for hop in choices) > COMBO_LIMIT:
        raise OracleGaveUp("too many parallel-arc combinations")
    totals = [(0, 0)]
    for hop in choices:
        totals = [(l + latency, w + omega) for l, w in totals for latency, omega in hop]
    best = 0
    for latency, omega in totals:
        if omega == 0:
            raise StaticCycleError(f"zero-distance circuit through oids {circuit}")
        best = max(best, math.ceil(latency / omega))
    return best


def oracle_recmii(ddg: DDG) -> int:
    """RecMII as the largest per-circuit bound (at least 1)."""
    grouped: Dict[Tuple[int, int], List[Arc]] = {}
    for arc in ddg.arcs:
        if arc.kind is not ArcKind.SEQ:
            grouped.setdefault((arc.src, arc.dst), []).append(arc)
    choices_by_hop = {hop: pareto_arcs(arcs) for hop, arcs in grouped.items()}
    succs: List[List[int]] = [[] for _ in range(ddg.n)]
    for src, dst in sorted(grouped):
        succs[src].append(dst)
    bound = 1
    for circuit in elementary_circuits(ddg.n, succs):
        bound = max(bound, circuit_bound(choices_by_hop, circuit))
    return bound


def assert_search_finds(ddg: DDG, expected: int) -> None:
    """The graph's RecMII is ``expected``, and the search left no
    closure cached at any II it could have probed."""
    analysis = LoopAnalysis.of(ddg)
    assert analysis.rec_mii == expected, ddg.loop.name
    probe_limit = 1 + sum(arc.latency for arc in ddg.arcs)
    assert not any(analysis.has_closure(ii) for ii in range(1, probe_limit + 1))


# ----------------------------------------------------------------------
# Hand-built loops
# ----------------------------------------------------------------------
def _two_op_loop(name: str) -> Tuple[LoopBody, int, int]:
    loop = LoopBody(name)
    a = loop.new_value("a", DType.FLOAT)
    b = loop.new_value("b", DType.FLOAT)
    opa = loop.add_op(Opcode.ADD_F, a, [Operand(b)])
    opb = loop.add_op(Opcode.ADD_F, b, [])
    loop.finalize()
    return loop, opa.oid, opb.oid


def _with_arcs(ddg: DDG, extra: List[Arc], keep_flow: bool = True) -> DDG:
    kept = [arc for arc in ddg.arcs if keep_flow or arc.kind is ArcKind.SEQ]
    return DDG(ddg.loop, kept + extra, ddg.machine)


def test_figure1_recmii_is_one(machine):
    ddg = build_ddg(build_figure1_loop(), machine)
    assert recmii(ddg) == 1
    assert oracle_recmii(ddg) == 1


def test_accumulator_recmii_is_one(machine):
    ddg = build_ddg(build_accumulator_loop(), machine)
    # s = s + p: latency 1 over distance 1.
    assert recmii(ddg) == 1


def test_multiply_accumulator_forces_recmii_two(machine):
    loop = LoopBody("mac")
    s = loop.new_value("s", DType.FLOAT)
    c = loop.invariant("c", DType.FLOAT)
    loop.add_op(Opcode.MUL_F, s, [Operand(s, back=1), Operand(c)])
    loop.finalize()
    ddg = build_ddg(loop, machine)
    # s = s * c: latency 2 over distance 1 -> RecMII 2.
    assert recmii(ddg) == 2
    assert oracle_recmii(ddg) == 2


def test_long_recurrence_divided_by_distance(machine):
    loop = LoopBody("lagged")
    s = loop.new_value("s", DType.FLOAT)
    t = loop.new_value("t", DType.FLOAT)
    loop.add_op(Opcode.MUL_F, s, [Operand(t, back=3)])
    loop.add_op(Opcode.MUL_F, t, [Operand(s, back=0)])
    loop.finalize()
    ddg = build_ddg(loop, machine)
    # Circuit latency 4 over total distance 3 -> ceil(4/3) = 2.
    assert recmii(ddg) == 2


def test_parallel_arcs_bind_in_combination(machine):
    # (latency, omega) arcs: a -> b carries (1, 0) and (9, 1), b -> a
    # carries (1, 1) and (6, 3).  Neither arc of a pair dominates the
    # other, and only (9, 1) + (1, 1) gives the binding ceil(10 / 2) = 5.
    loop, a, b = _two_op_loop("pareto")
    ddg = _with_arcs(
        build_ddg(loop, machine),
        [
            Arc(a, b, 1, 0, ArcKind.MEM),
            Arc(a, b, 9, 1, ArcKind.MEM),
            Arc(b, a, 1, 1, ArcKind.MEM),
            Arc(b, a, 6, 3, ArcKind.MEM),
        ],
        keep_flow=False,
    )
    assert oracle_recmii(ddg) == 5
    assert recmii(ddg) == 5


def test_recurrence_ops_finds_cross_recurrences(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    ops = LoopAnalysis.of(ddg).recurrence_ops
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    y_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "y")
    assert x_def.oid in ops and y_def.oid in ops
    stores = [op.oid for op in loop.real_ops if op.is_store]
    assert not any(oid in ops for oid in stores)


def test_self_recurrence_is_trivial(machine):
    """An op depending only on itself is not on a *non-trivial* circuit."""
    ddg = build_ddg(build_accumulator_loop(), machine)
    assert LoopAnalysis.of(ddg).recurrence_ops == set()


def test_static_cycle_detected(machine):
    loop, a, b = _two_op_loop("bad")
    ddg = _with_arcs(build_ddg(loop, machine), [Arc(a, b, 1, 0, ArcKind.MEM)])
    with pytest.raises(StaticCycleError):
        recmii(ddg)
    with pytest.raises(StaticCycleError):
        oracle_recmii(ddg)


def test_zero_distance_self_arc_is_a_static_cycle(machine):
    loop, a, _ = _two_op_loop("self")
    ddg = _with_arcs(build_ddg(loop, machine), [Arc(a, a, 1, 0, ArcKind.MEM)])
    with pytest.raises(StaticCycleError):
        recmii(ddg)
    with pytest.raises(StaticCycleError):
        oracle_recmii(ddg)


@pytest.mark.parametrize("latency", [0, 1])
def test_zero_distance_two_cycle_is_a_static_cycle(machine, latency):
    # With latency 0 the circuit costs 0 at every II, so no positive
    # cycle ever shows it: it must be found from the distances alone.
    loop, a, b = _two_op_loop(f"two_cycle_{latency}")
    ddg = _with_arcs(
        build_ddg(loop, machine),
        [Arc(a, b, latency, 0, ArcKind.MEM), Arc(b, a, latency, 0, ArcKind.MEM)],
        keep_flow=False,
    )
    with pytest.raises(StaticCycleError):
        recmii(ddg)
    with pytest.raises(StaticCycleError):
        oracle_recmii(ddg)


def test_scc_on_simple_graph():
    # Imported here: the oracle above must not depend on it.
    from repro.bounds import strongly_connected_components

    succs = [[1], [2], [0], [4], []]
    components = strongly_connected_components(5, succs)
    sizes = sorted(len(c) for c in components)
    assert sizes == [1, 1, 3]


def test_elementary_circuits_triangle_plus_selfloop():
    succs = [[1], [2], [0], [3]]
    circuits = sorted(tuple(sorted(c)) for c in elementary_circuits(4, succs))
    assert circuits == [(0, 1, 2), (3,)]


def test_elementary_circuits_two_overlapping():
    # 0->1->0 and 0->1->2->0 share node 0 and 1.
    succs = [[1], [0, 2], [0]]
    circuits = sorted(tuple(c) for c in elementary_circuits(3, succs))
    assert len(circuits) == 2


def test_elementary_circuits_of_a_complete_digraph():
    # K4 has C(4,k) * (k-1)! circuits of length k: 6 + 8 + 6 = 20.
    succs = [[child for child in range(4) if child != node] for node in range(4)]
    circuits = [tuple(c) for c in elementary_circuits(4, succs)]
    assert len(circuits) == len(set(circuits)) == 20


def test_oracle_gives_up_beyond_its_circuit_cap():
    succs = [[child for child in range(5) if child != node] for node in range(5)]
    with pytest.raises(OracleGaveUp):
        list(elementary_circuits(5, succs, limit=10))


# ----------------------------------------------------------------------
# The search against the oracle
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _machine(target):
    return build_machine(target)


@st.composite
def random_recurrence_graphs(draw):
    """Random SSA loops whose carried deps form arbitrary circuits, on a
    drawn target, plus memory arcs with omega >= 1 running parallel to
    flow arcs, so circuits have several non-dominated arc choices."""
    n = draw(st.integers(min_value=2, max_value=8))
    loop = LoopBody("rand")
    values = [loop.new_value(f"v{i}", DType.FLOAT) for i in range(n)]
    ops = []
    flow = []
    for i in range(n):
        n_inputs = draw(st.integers(min_value=1, max_value=2))
        operands = []
        for _ in range(n_inputs):
            j = draw(st.integers(min_value=0, max_value=n - 1))
            back = draw(st.integers(min_value=0, max_value=3))
            if j >= i and back == 0:
                back = 1  # avoid same-iteration forward refs / static cycles
            operands.append(Operand(values[j], back=back))
            flow.append((j, i))
        opcode = draw(st.sampled_from([Opcode.ADD_F, Opcode.MUL_F]))
        ops.append(loop.add_op(opcode, values[i], operands))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        j, i = draw(st.sampled_from(flow))
        latency = draw(st.integers(min_value=1, max_value=8))
        omega = draw(st.integers(min_value=1, max_value=3))
        loop.add_mem_dep(ops[j], ops[i], omega=omega, latency=latency)
    loop.finalize()
    return build_ddg(loop, _machine(draw(st.sampled_from(machine_names()))))


@given(random_recurrence_graphs())
@settings(max_examples=60, deadline=None)
def test_circuit_scan_agrees_with_feasibility_search(ddg):
    """The paper's two RecMII computations must agree on any legal DDG."""
    try:
        expected = oracle_recmii(ddg)
    except OracleGaveUp:
        assume(False)
    assert_search_finds(ddg, expected)


@on_targets(named_kernels())
def test_kernel_recmii_matches_the_circuit_oracle(program, target):
    ddg = build_ddg(compile_loop(program), _machine(target))
    try:
        expected = oracle_recmii(ddg)
    except OracleGaveUp as exc:
        pytest.skip(f"oracle gave up on {program.name}: {exc}")
    assert_search_finds(ddg, expected)


# ----------------------------------------------------------------------
# Pinned values over the whole corpus
# ----------------------------------------------------------------------
def recmii_records():
    """``{"loops": [names], "rec_mii": {target: [RecMII per loop]}}`` for
    ``paper_corpus(seed=1993)`` on every registry target."""
    loops = [compile_loop(program) for program in paper_corpus(seed=1993)]
    return {
        "loops": [loop.name for loop in loops],
        "rec_mii": {
            target: [recmii(build_ddg(loop, _machine(target))) for loop in loops]
            for target in machine_names()
        },
    }


def test_corpus_recmii_matches_the_pinned_records():
    expected = json.loads(FIXTURE.read_text())
    actual = recmii_records()
    assert actual["loops"] == expected["loops"], "the corpus's loops changed"
    assert sorted(actual["rec_mii"]) == sorted(expected["rec_mii"]), "the targets changed"
    for target, pinned in expected["rec_mii"].items():
        for name, now, then in zip(expected["loops"], actual["rec_mii"][target], pinned):
            assert now == then, f"{name} on {target}: RecMII {now}, pinned {then}"
