"""Unit tests for the LoopBody container and builder."""

import pytest

from repro.ir import DType, LoopBody, Opcode, Operand

from tests.conftest import build_figure1_loop


def test_finalize_inserts_start_and_stop():
    loop = build_figure1_loop()
    assert loop.start.opcode is Opcode.START
    assert loop.stop.opcode is Opcode.STOP
    assert loop.start.oid == 0
    assert loop.stop.oid == loop.n_ops - 1
    assert all(op.oid == i for i, op in enumerate(loop.ops))


def test_finalize_is_idempotent():
    loop = build_figure1_loop()
    n = loop.n_ops
    assert loop.finalize() is loop
    assert loop.n_ops == n


def test_real_ops_excludes_pseudo_ops():
    loop = build_figure1_loop()
    assert len(loop.real_ops) == loop.n_ops - 2
    assert not any(op.opcode in (Opcode.START, Opcode.STOP) for op in loop.real_ops)


def test_ssa_double_definition_rejected():
    loop = LoopBody("t")
    value = loop.new_value("v", DType.FLOAT)
    loop.add_op(Opcode.ADD_F, value, [Operand(loop.constant(1.0))])
    with pytest.raises(ValueError):
        loop.add_op(Opcode.ADD_F, value, [Operand(loop.constant(2.0))])


def test_add_op_after_finalize_rejected():
    loop = build_figure1_loop()
    with pytest.raises(RuntimeError):
        loop.add_op(Opcode.BRTOP)


def test_uses_of_counts_all_reads():
    loop = build_figure1_loop()
    xv = next(v for v in loop.values if v.name == "x")
    users = [(op, operand) for op in loop.ops for operand in op.inputs() if operand.value is xv]
    # x is read by: x's own def (back=1), y's def (back=2), store x.
    assert len(users) == 3
    backs = sorted(operand.back for _, operand in users)
    assert backs == [0, 1, 2]


def test_dead_code_elimination_removes_unused_chain():
    loop = LoopBody("t")
    live = loop.new_value("live", DType.FLOAT)
    dead1 = loop.new_value("dead1", DType.FLOAT)
    dead2 = loop.new_value("dead2", DType.FLOAT)
    addr = loop.new_value("a", DType.ADDR)
    loop.add_op(Opcode.ADDR_ADD, addr, [Operand(addr, back=1), Operand(loop.constant(4, DType.ADDR))])
    loop.add_op(Opcode.ADD_F, live, [Operand(live, back=1), Operand(loop.constant(1.0))])
    loop.add_op(Opcode.MUL_F, dead1, [Operand(live)])
    loop.add_op(Opcode.ADD_F, dead2, [Operand(dead1)])
    loop.add_op(Opcode.STORE, None, [Operand(addr), Operand(live)], array="x")
    removed = loop.eliminate_dead_code()
    assert removed == 2
    assert all(op.dest not in (dead1, dead2) for op in loop.ops)
    assert [op.oid for op in loop.ops] == list(range(len(loop.ops)))
    assert dead1 not in loop.values and dead2 not in loop.values
    assert [v.vid for v in loop.values] == list(range(len(loop.values)))


def test_dead_code_elimination_keeps_live_out():
    loop = LoopBody("t")
    acc = loop.new_value("s", DType.FLOAT)
    loop.add_op(Opcode.ADD_F, acc, [Operand(acc, back=1), Operand(loop.constant(1.0))])
    loop.live_out["s"] = acc
    assert loop.eliminate_dead_code() == 0
    assert len(loop.ops) == 1


def test_dead_code_elimination_remaps_mem_deps():
    loop = LoopBody("t")
    addr = loop.new_value("a", DType.ADDR)
    dead = loop.new_value("dead", DType.FLOAT)
    loop.add_op(Opcode.ADDR_ADD, addr, [Operand(addr, back=1), Operand(loop.constant(4, DType.ADDR))])
    dead_op = loop.add_op(Opcode.MUL_F, dead, [Operand(loop.constant(3.0))])
    load_v = loop.new_value("x", DType.FLOAT)
    load = loop.add_op(Opcode.LOAD, load_v, [Operand(addr)], array="x")
    store = loop.add_op(Opcode.STORE, None, [Operand(addr), Operand(load_v)], array="x")
    loop.add_mem_dep(load, store, omega=0)
    loop.eliminate_dead_code()
    assert len(loop.mem_deps) == 1
    dep = loop.mem_deps[0]
    assert loop.ops[dep.src] is load
    assert loop.ops[dep.dst] is store


def test_brtop_lookup():
    loop = build_figure1_loop()
    assert loop.brtop() is not None
    assert loop.brtop().opcode is Opcode.BRTOP


def test_dump_contains_all_ops():
    loop = build_figure1_loop()
    text = loop.dump()
    assert "start" in text and "stop" in text and "brtop" in text
