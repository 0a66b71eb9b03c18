"""Unit tests for the slack scheduler's heuristics (§4.3, §5.2)."""

import pytest

from repro.bounds import LoopAnalysis
from repro.core import SlackAttempt
from repro.ir import DType, LoopBody, Opcode, Operand, build_ddg

from tests.conftest import build_accumulator_loop, build_divider_loop, build_figure1_loop


def _attempt(machine, loop, ii, **kwargs):
    ddg = build_ddg(loop, machine)
    return SlackAttempt(LoopAnalysis.of(ddg), ii, **kwargs)


# ----------------------------------------------------------------------
# Dynamic priority (§4.3)
# ----------------------------------------------------------------------
def test_priority_is_current_slack(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    lstart = attempt.lstart
    for op in loop.real_ops:
        if op.oid in attempt.critical_ops or op.uses_divider:
            continue
        slack = int(lstart[op.oid]) - int(attempt.estart[op.oid])
        assert attempt.priority(op) == slack


def test_critical_ops_get_halved_priority(machine):
    loop = build_figure1_loop()  # adds saturate the single Adder at II=2
    attempt = _attempt(machine, loop, ii=2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    assert all(op.oid in attempt.critical_ops for op in adds)
    lstart = attempt.lstart
    for op in adds:
        slack = int(lstart[op.oid]) - int(attempt.estart[op.oid])
        assert attempt.priority(op) == slack / 2


def test_divider_ops_get_quartered_priority_when_critical(machine):
    loop = build_divider_loop()
    attempt = _attempt(machine, loop, ii=17)
    div = next(op for op in loop.real_ops if op.uses_divider)
    slack = int(attempt.lstart[div.oid]) - int(attempt.estart[div.oid])
    assert div.oid in attempt.critical_ops  # 17/17 cycles busy
    assert attempt.priority(div) == slack / 4


def test_no_halving_without_contention(machine):
    loop = LoopBody("nocontention")
    s = loop.new_value("s", DType.FLOAT)
    loop.add_op(Opcode.ADD_F, s, [Operand(s, back=1)])
    loop.finalize()
    attempt = _attempt(machine, loop, ii=1)
    assert not attempt.contention
    op = loop.real_ops[0]
    slack = int(attempt.lstart[op.oid]) - int(attempt.estart[op.oid])
    assert attempt.priority(op) == slack


def test_choose_operation_prefers_min_slack_then_min_lstart(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    chosen = attempt.choose_operation()
    lstart = attempt.lstart
    best = min(
        (attempt.priority(loop.ops[oid]), int(lstart[oid]))
        for oid in attempt.unplaced
    )
    assert (attempt.priority(chosen), int(lstart[chosen.oid])) == best


# ----------------------------------------------------------------------
# Bidirectional placement decision (§5.2)
# ----------------------------------------------------------------------
def test_accumulator_with_no_stretchable_io_goes_early(machine):
    """An accumulator read only after the loop: no inputs, no outputs."""
    loop = LoopBody("acc")
    s = loop.new_value("s", DType.FLOAT)
    loop.add_op(Opcode.ADD_F, s, [Operand(s, back=1), Operand(loop.constant(1.0))])
    loop.live_out["s"] = s
    loop.finalize()
    attempt = _attempt(machine, loop, ii=1)
    op = loop.real_ops[0]
    assert attempt._stretchable_inputs(op) == 0  # self-recurrence ignored
    assert attempt._stretchable_outputs(op) == 0  # only self use
    assert attempt.prefers_early(op)


def test_load_with_pinned_address_goes_late(machine):
    """The paper's motivating case: loads should not be placed early."""
    loop = build_accumulator_loop()
    attempt = _attempt(machine, loop, ii=1)
    load = next(op for op in loop.real_ops if op.is_load)
    # The address IV lifetime is pinned by its own self-recurrence: the
    # load cannot stretch it, so inputs=0 < outputs=1 -> place late.
    assert attempt._stretchable_inputs(load) == 0
    assert attempt._stretchable_outputs(load) == 1
    assert not attempt.prefers_early(load)


def test_store_with_stretchable_input_goes_early(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=2)
    store = next(op for op in loop.real_ops if op.is_store)
    assert attempt._stretchable_outputs(store) == 0
    if attempt._stretchable_inputs(store) > 0:
        assert attempt.prefers_early(store)


def test_duplicate_inputs_counted_once(machine):
    loop = LoopBody("dup")
    ax = loop.new_value("ax", DType.ADDR)
    x = loop.new_value("x", DType.FLOAT)
    y = loop.new_value("y", DType.FLOAT)
    loop.add_op(Opcode.ADDR_ADD, ax, [Operand(ax, back=1), Operand(loop.constant(4, DType.ADDR))])
    loop.add_op(Opcode.LOAD, x, [Operand(ax)], array="x")
    loop.add_op(Opcode.MUL_F, y, [Operand(x), Operand(x)])  # x used twice
    loop.add_op(Opcode.STORE, None, [Operand(ax), Operand(y)], array="y")
    loop.finalize()
    attempt = _attempt(machine, loop, ii=3)
    mul = next(op for op in loop.real_ops if op.opcode is Opcode.MUL_F)
    assert attempt._stretchable_inputs(mul) <= 1


def test_invariant_inputs_ignored(machine):
    loop = build_divider_loop()
    attempt = _attempt(machine, loop, ii=17)
    div = next(op for op in loop.real_ops if op.uses_divider)
    # div reads the loaded x (variant) and the invariant c: at most one
    # stretchable input.
    assert attempt._stretchable_inputs(div) <= 1


def test_tie_breaks_toward_placed_neighbors(machine):
    loop = build_figure1_loop()
    attempt = _attempt(machine, loop, ii=4)
    x_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "x")
    store_x = next(
        op for op in loop.real_ops if op.is_store and op.attrs["array"] == "x"
    )
    # Make the store's only predecessors placed: prefer early (near them).
    ax_def = next(op for op in loop.real_ops if op.dest is not None and op.dest.name == "ax")
    attempt._place(x_def, 0)
    attempt._place(ax_def, 0)
    attempt._refresh_bounds()
    preds, succs = attempt.analysis.neighbors(store_x)
    assert all(oid in attempt.times for oid in preds)
    assert attempt.prefers_early(store_x)


def test_unidirectional_flag_disables_heuristic(machine):
    loop = build_accumulator_loop()
    ddg = build_ddg(loop, machine)
    attempt = SlackAttempt(
        LoopAnalysis.of(ddg), 1, bidirectional=False
    )
    load = next(op for op in loop.real_ops if op.is_load)
    lo = int(attempt.estart[load.oid])
    hi = min(-int(attempt.neg_lstart[load.oid]), lo + attempt.ii - 1)
    # With the heuristic off, the scan is early-to-late: first fit = lo.
    assert attempt.choose_issue_cycle(load, lo, hi) == lo


def test_static_priority_freezes_initial_slack(machine):
    from repro.ir import build_ddg

    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    attempt = SlackAttempt(
        LoopAnalysis.of(ddg), 2, dynamic_priority=False
    )
    op = loop.real_ops[0]
    before = attempt.priority(op)
    # Place something that would normally shrink the op's slack.
    adds = [o for o in loop.real_ops if o.opcode is Opcode.ADD_F]
    attempt._place(adds[0], 0)
    attempt._refresh_bounds()
    assert attempt.priority(op) == before  # frozen


def test_dynamic_priority_tracks_placements(machine):
    from repro.ir import build_ddg

    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    attempt = SlackAttempt(LoopAnalysis.of(ddg), 2)
    stores = [o for o in loop.real_ops if o.is_store]
    before = attempt.priority(stores[0])
    adds = [o for o in loop.real_ops if o.opcode is Opcode.ADD_F]
    attempt._place(adds[0], 0)
    attempt._place(adds[1], 1)
    attempt._refresh_bounds()
    after = attempt.priority(stores[0])
    assert after != before  # the slack moved with the partial schedule


def test_static_priority_snapshot_is_eager_not_lazy(machine):
    # The §8 ablation freezes each op's *initial* slack.  The snapshot
    # must be taken for every op at attempt start: it used to be
    # captured lazily at each op's first priority() query, so ops first
    # visited after a placement leaked the already-tightened bounds
    # into their "initial" slack.
    from repro.ir import build_ddg

    loop = build_figure1_loop()

    def fresh():
        ddg = build_ddg(loop, machine)
        return SlackAttempt(
            LoopAnalysis.of(ddg), 2, dynamic_priority=False
        )

    reference = fresh()
    initial = {op.oid: reference.priority(op) for op in loop.real_ops}

    attempt = fresh()
    adds = [o for o in loop.real_ops if o.opcode is Opcode.ADD_F]
    attempt._place(adds[0], 0)
    attempt._place(adds[1], 1)
    attempt._refresh_bounds()
    # First priority() query happens only now, after the placements
    # (which demonstrably move the dynamic slack — see
    # test_dynamic_priority_tracks_placements).
    for op in loop.real_ops:
        assert attempt.priority(op) == initial[op.oid], op
