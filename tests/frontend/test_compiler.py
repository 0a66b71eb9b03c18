"""Unit tests for the DoLoop -> IR compiler."""

import gc
import weakref

import pytest

from repro.frontend import (
    ArrayRef,
    Assign,
    CompileError,
    Compare,
    Const,
    DoLoop,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Unary,
    compile_loop,
)
from repro.frontend.compiler import LoopCompiler
from repro.ir import ArrayElementOrigin, DType, Opcode, ScalarOrigin
from repro.workloads import paper_corpus


def _fig1():
    return DoLoop(
        "fig1",
        start=2,
        trip=10,
        body=[
            Assign(ArrayRef("x"), ArrayRef("x", -1) + ArrayRef("y", -2)),
            Assign(ArrayRef("y"), ArrayRef("y", -1) + ArrayRef("x", -2)),
        ],
        arrays={"x": 20, "y": 20},
    )


def test_figure1_loads_are_eliminated():
    loop = compile_loop(_fig1())
    assert not any(op.is_load for op in loop.real_ops)
    assert sum(1 for op in loop.real_ops if op.is_store) == 2
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    assert len(adds) == 2
    # x's def reads itself at distance 1 and y at distance 2 (Figure 1).
    x_add, y_add = adds
    backs = sorted(o.back for o in x_add.operands)
    assert backs == [1, 2]
    cross = [o for o in x_add.operands if o.value is y_add.dest]
    assert cross and cross[0].back == 2


def test_elimination_can_be_disabled():
    loop = compile_loop(_fig1(), load_store_elimination=False)
    assert sum(1 for op in loop.real_ops if op.is_load) == 4


def test_eliminated_value_carries_array_origin():
    loop = compile_loop(_fig1())
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    origin = adds[0].dest.origin
    assert isinstance(origin, ArrayElementOrigin)
    assert origin.array == "x"
    assert origin.offset == 2  # stride 1 * start 2 + offset 0


def test_brtop_and_pseudo_ops_present():
    loop = compile_loop(_fig1())
    assert loop.finalized
    assert loop.brtop() is not None


def test_address_ivs_shared_per_array_and_stride():
    program = DoLoop(
        "stencil",
        body=[Assign(ArrayRef("z"), ArrayRef("w", -1) + ArrayRef("w") + ArrayRef("w", 1))],
        arrays={"z": 30, "w": 40},
        trip=10,
    )
    loop = compile_loop(program, load_reuse=False)
    addr_ops = [op for op in loop.real_ops if op.opcode is Opcode.ADDR_ADD]
    # One IV for w, one for z — displacements fold into the loads.
    assert len(addr_ops) == 2
    loads = [op for op in loop.real_ops if op.is_load]
    assert sorted(op.attrs["disp"] for op in loads) == [-1, 0, 1]


def test_load_reuse_keeps_one_load():
    program = DoLoop(
        "reuse",
        body=[Assign(ArrayRef("z"), ArrayRef("w", -1) + ArrayRef("w") + ArrayRef("w", 1))],
        arrays={"z": 30, "w": 40},
        trip=10,
    )
    loop = compile_loop(program)
    loads = [op for op in loop.real_ops if op.is_load]
    assert len(loads) == 1  # the leader (highest offset) survives
    assert loads[0].attrs["disp"] == 1


def test_same_iteration_cse_of_identical_loads():
    program = DoLoop(
        "dupload",
        body=[Assign(ArrayRef("z"), ArrayRef("w") * ArrayRef("w"))],
        arrays={"z": 30, "w": 30},
        trip=10,
    )
    loop = compile_loop(program, load_reuse=False)
    assert sum(1 for op in loop.real_ops if op.is_load) == 1


def test_load_after_store_sees_the_new_value():
    """A load textually after a store to the same element must not CSE
    with the pre-store load (the ll14 regression); with an eliminable
    store it forwards the stored value instead of re-loading."""
    program = DoLoop(
        "rw",
        body=[
            Assign(Scalar("a"), ArrayRef("x")),
            Assign(ArrayRef("x"), Scalar("a") + 1.0),
            Assign(Scalar("b"), ArrayRef("x")),
        ],
        arrays={"x": 30},
        scalars={"a": 0.0, "b": 0.0},
        live_out=["b"],
        trip=10,
    )
    loop = compile_loop(program)
    # One real load (the pre-store read); the post-store read forwards.
    assert sum(1 for op in loop.real_ops if op.is_load) == 1
    add = next(op for op in loop.real_ops if op.opcode is Opcode.ADD_F)
    assert loop.live_out["b"] is add.dest

    # With forwarding disabled the load must survive and re-read memory.
    plain = compile_loop(program, load_store_elimination=False)
    assert sum(1 for op in plain.real_ops if op.is_load) == 2


def test_scalar_recurrence_reads_previous_iteration():
    program = DoLoop(
        "acc",
        body=[Assign(Scalar("s"), Scalar("s") + ArrayRef("x"))],
        arrays={"x": 30},
        scalars={"s": 0.0},
        live_out=["s"],
        trip=10,
    )
    loop = compile_loop(program)
    add = next(op for op in loop.real_ops if op.opcode is Opcode.ADD_F)
    self_reads = [o for o in add.operands if o.value is add.dest]
    assert self_reads and self_reads[0].back == 1
    assert isinstance(add.dest.origin, ScalarOrigin)
    assert loop.live_out["s"] is add.dest


def test_undeclared_assigned_scalar_rejected():
    program = DoLoop(
        "bad",
        body=[Assign(Scalar("s"), Scalar("s") + 1.0)],
        trip=5,
    )
    with pytest.raises(CompileError):
        compile_loop(program)


def test_undeclared_invariant_rejected():
    program = DoLoop(
        "bad2",
        body=[Assign(ArrayRef("x"), Scalar("mystery"))],
        arrays={"x": 20},
        trip=5,
    )
    with pytest.raises(CompileError):
        compile_loop(program)


def test_if_conversion_produces_predicates_and_selects():
    program = DoLoop(
        "cond",
        body=[
            If(
                ArrayRef("x") > Const(1.0),
                then=[Assign(Scalar("s"), Scalar("s") + 1.0)],
                orelse=[Assign(Scalar("s"), Scalar("s") - 1.0)],
            )
        ],
        arrays={"x": 30},
        scalars={"s": 0.0},
        live_out=["s"],
        trip=10,
    )
    loop = compile_loop(program)
    assert loop.meta["has_conditional"]
    opcodes = {op.opcode for op in loop.real_ops}
    assert Opcode.CMP_GT in opcodes
    assert Opcode.SELECT in opcodes
    preds = [v for v in loop.values if v.dtype is DType.PRED]
    assert preds


def test_predicated_store_in_branch():
    program = DoLoop(
        "condstore",
        body=[
            If(
                ArrayRef("x") > Const(1.0),
                then=[Assign(ArrayRef("z"), ArrayRef("x") * 2.0)],
            )
        ],
        arrays={"x": 30, "z": 30},
        trip=10,
    )
    loop = compile_loop(program)
    store = next(op for op in loop.real_ops if op.is_store)
    assert store.predicate is not None
    assert store.predicate.value.dtype is DType.PRED


def test_guarded_store_blocks_elimination():
    program = DoLoop(
        "guarded",
        body=[
            If(
                ArrayRef("y") > Const(1.0),
                then=[Assign(ArrayRef("x"), ArrayRef("y") * 2.0)],
            ),
            Assign(ArrayRef("z"), ArrayRef("x", -1) + 1.0),
        ],
        arrays={"x": 30, "y": 30, "z": 30},
        trip=10,
    )
    loop = compile_loop(program)
    # x(i-1) must stay a real load: the store is conditional.
    x_loads = [op for op in loop.real_ops if op.is_load and op.attrs["array"] == "x"]
    assert len(x_loads) == 1
    # And a cross-iteration memory dependence protects it.
    assert any(dep.omega == 1 for dep in loop.mem_deps)


def test_gather_gets_conservative_memory_deps():
    program = DoLoop(
        "gather",
        body=[
            Assign(ArrayRef("x"), ArrayRef("x", -1) + 1.0),
            Assign(ArrayRef("z"), Gather("x", Index())),
        ],
        arrays={"x": 60, "z": 60},
        trip=10,
    )
    loop = compile_loop(program)
    # The gather defeats elimination on x and produces both-direction arcs.
    assert any(op.is_load and op.attrs.get("gather") for op in loop.real_ops)
    omegas = sorted(dep.omega for dep in loop.mem_deps)
    assert 0 in omegas and 1 in omegas


def test_stride2_disjoint_refs_have_no_deps():
    program = DoLoop(
        "evens",
        body=[Assign(ArrayRef("x", 0, 2), ArrayRef("x", 1, 2) + 1.0)],
        arrays={"x": 80},
        trip=10,
    )
    loop = compile_loop(program)
    assert loop.mem_deps == []  # odd reads never alias even writes


def test_basic_block_count_metric():
    program = DoLoop(
        "blocks",
        body=[
            Assign(ArrayRef("z"), ArrayRef("x")),
            If(ArrayRef("x") > Const(1.0), then=[Assign(ArrayRef("w"), ArrayRef("x"))]),
        ],
        arrays={"x": 30, "z": 30, "w": 30},
        trip=10,
    )
    loop = compile_loop(program)
    assert loop.meta["n_basic_blocks"] == 4
    assert loop.meta["trip"] == 10


def test_scatter_compiles_to_indirect_store():
    program = DoLoop(
        "scatter",
        body=[Assign(Scatter("z", Index()), ArrayRef("x"))],
        arrays={"x": 30, "z": 60},
        trip=10,
    )
    loop = compile_loop(program)
    store = next(op for op in loop.real_ops if op.is_store)
    assert store.attrs.get("gather")


def test_compiled_op_order_is_hash_seed_independent():
    # Regression: bare set iteration in the if-join merge made op
    # numbering (and hence every downstream schedule) vary with
    # PYTHONHASHSEED from process to process, breaking the batch
    # backends' byte-identical-metrics contract.
    import os
    import subprocess
    import sys

    script = (
        "from repro.frontend import compile_loop\n"
        "from repro.workloads import paper_corpus\n"
        "for program in paper_corpus(24, seed=1993):\n"
        "    loop = compile_loop(program)\n"
        "    print(loop.name, [\n"
        "        (op.opcode.name, op.dest.name if op.dest is not None else '')\n"
        "        for op in loop.ops\n"
        "    ])\n"
    )
    dumps = []
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        dumps.append(result.stdout)
    assert dumps[0] == dumps[1] == dumps[2]


def test_compiling_a_loop_leaves_no_compiler_behind(monkeypatch):
    # The compiler holds every IR object of the loop it built, so a
    # reference cycle through it would keep all of them until the cyclic
    # collector ran: reference counting alone must free it.
    compilers = []
    compile_ = LoopCompiler.compile

    def tracked(self):
        compilers.append(weakref.ref(self))
        return compile_(self)

    monkeypatch.setattr(LoopCompiler, "compile", tracked)
    gc.collect()
    gc.disable()
    try:
        for program in paper_corpus(48, 1993):
            compile_loop(program)
        alive = [ref().program.name for ref in compilers if ref() is not None]
    finally:
        gc.enable()
    assert len(compilers) == 48
    assert alive == []
