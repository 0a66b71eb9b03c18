"""Unit and property tests for RecMII: circuit scan vs feasibility search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    StaticCycleError,
    elementary_circuits,
    recmii,
    recmii_by_circuits,
    recmii_by_feasibility,
    recurrence_ops,
    strongly_connected_components,
)
from repro.ir import ArcKind, DType, LoopBody, Opcode, Operand, build_ddg
from repro.ir.ddg import DDG, Arc

from tests.conftest import build_accumulator_loop, build_figure1_loop


def test_figure1_recmii_is_one(machine):
    ddg = build_ddg(build_figure1_loop(), machine)
    assert recmii_by_circuits(ddg) == 1
    assert recmii_by_feasibility(ddg) == 1


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
    assert recmii_by_circuits(ddg) == 2
    assert recmii_by_feasibility(ddg) == 2


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


def test_recurrence_ops_finds_cross_recurrences(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    ops = recurrence_ops(ddg)
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    y_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "y")
    assert x_def.oid in ops and y_def.oid in ops
    stores = [op.oid for op in loop.real_ops if op.is_store]
    assert not any(oid in ops for oid in stores)


def test_self_recurrence_is_trivial(machine):
    """An op depending only on itself is not on a *non-trivial* circuit."""
    ddg = build_ddg(build_accumulator_loop(), machine)
    assert recurrence_ops(ddg) == set()


def test_static_cycle_detected(machine):
    loop = LoopBody("bad")
    a = loop.new_value("a", DType.FLOAT)
    b = loop.new_value("b", DType.FLOAT)
    opa = loop.add_op(Opcode.ADD_F, a, [Operand(b)])
    opb = loop.add_op(Opcode.ADD_F, b, [])
    loop.finalize()
    ddg = build_ddg(loop, machine)
    ddg.arcs.append(Arc(opa.oid, opb.oid, 1, 0, ArcKind.MEM))
    ddg = DDG(loop, ddg.arcs, machine)
    with pytest.raises(StaticCycleError):
        recmii_by_circuits(ddg)
    with pytest.raises(StaticCycleError):
        recmii_by_feasibility(ddg)


def test_scc_on_simple_graph():
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


@st.composite
def random_recurrence_loops(draw):
    """Random SSA loops whose carried deps form arbitrary circuits."""
    n = draw(st.integers(min_value=2, max_value=8))
    loop = LoopBody("rand")
    values = [loop.new_value(f"v{i}", DType.FLOAT) for i in range(n)]
    for i in range(n):
        n_inputs = draw(st.integers(min_value=1, max_value=2))
        operands = []
        for _ in range(n_inputs):
            j = draw(st.integers(min_value=0, max_value=n - 1))
            back = draw(st.integers(min_value=0, max_value=3))
            if j >= i and back == 0:
                back = 1  # avoid same-iteration forward refs / static cycles
            operands.append(Operand(values[j], back=back))
        opcode = draw(st.sampled_from([Opcode.ADD_F, Opcode.MUL_F]))
        loop.add_op(opcode, values[i], operands)
    loop.finalize()
    return loop


@given(random_recurrence_loops())
@settings(max_examples=60, deadline=None)
def test_circuit_scan_agrees_with_feasibility_search(loop):
    """The paper's two RecMII computations must agree on any legal DDG."""
    from repro.machine import cydra5

    ddg = build_ddg(loop, cydra5())
    assert recmii_by_circuits(ddg) == recmii_by_feasibility(ddg)
