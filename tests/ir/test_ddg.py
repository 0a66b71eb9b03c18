"""Unit tests for dependence-graph construction."""

from repro.bounds import LoopAnalysis
from repro.ir import ArcKind, Opcode, build_ddg

from tests.conftest import build_divider_loop, build_figure1_loop


def test_every_real_op_has_seq_arcs(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    for op in loop.real_ops:
        assert any(
            arc.kind is ArcKind.SEQ and arc.src == loop.start.oid for arc in ddg.preds[op.oid]
        )
        assert any(
            arc.kind is ArcKind.SEQ and arc.dst == loop.stop.oid for arc in ddg.succs[op.oid]
        )


def test_flow_arcs_carry_latency_and_omega(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    y_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "y")
    cross = [
        arc
        for arc in ddg.flow_outputs(x_def)
        if arc.dst == y_def.oid
    ]
    assert len(cross) == 1
    assert cross[0].omega == 2
    assert cross[0].latency == machine.latency(x_def) == 1
    self_arcs = [arc for arc in ddg.flow_outputs(x_def) if arc.dst == arc.src]
    assert len(self_arcs) == 1 and self_arcs[0].omega == 1


def test_load_latency_propagates_to_flow_arcs(machine):
    loop = build_divider_loop()
    ddg = build_ddg(loop, machine)
    load = next(op for op in loop.real_ops if op.is_load)
    out = [arc for arc in ddg.flow_outputs(load)]
    assert out and all(arc.latency == 13 for arc in out)


def test_mem_deps_become_mem_arcs(machine):
    loop = build_divider_loop()
    ddg = build_ddg(loop, machine)
    mem_arcs = [arc for arc in ddg.arcs if arc.kind is ArcKind.MEM]
    assert len(mem_arcs) == 1
    assert mem_arcs[0].omega == 0 and mem_arcs[0].latency == 1


def test_invariant_operands_create_no_arcs(machine):
    loop = build_divider_loop()
    ddg = build_ddg(loop, machine)
    div = next(op for op in loop.real_ops if op.opcode is Opcode.DIV_F)
    incoming_flow = [arc for arc in ddg.preds[div.oid] if arc.kind is ArcKind.FLOW]
    # Only the load feeds the divide; the invariant divisor does not.
    assert len(incoming_flow) == 1


def test_neighbors_excludes_seq_and_self(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    preds, succs = LoopAnalysis.of(ddg).neighbors(x_def)
    assert x_def.oid not in preds and x_def.oid not in succs
    assert loop.start.oid not in preds
    assert loop.stop.oid not in succs
