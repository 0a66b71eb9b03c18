"""Property tests: the MRT must match a per-cycle reference.

:class:`ModuloResourceTable` answers ``conflicts``, ``fits`` and
whole-window ``first_fit`` questions by scanning one doubled list of
oid cells per unit instance.  These tests drive random
place/remove/query sequences against an independent dict-based shadow
model that implements the per-cycle semantics directly, covering
ascending (early) and descending (late) scans, wraparound, windows
longer than II and the non-pipelined (busy > 1) footprint, and check
``rows`` against the shadow after every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Opcode
from repro.machine import ModuloResourceTable, cydra5

from tests.conftest import build_divider_loop, build_figure1_loop

MACHINE = cydra5()
LOOPS = {"fig1": build_figure1_loop(), "div": build_divider_loop()}


def _ref_conflicts(shadow, unit, busy, ii, oid, cycle):
    if busy > ii:
        return [-1]
    blockers = []
    for offset in range(busy):
        occupant = shadow.get((unit, (cycle + offset) % ii), -1)
        if occupant != -1 and occupant != oid and occupant not in blockers:
            blockers.append(occupant)
    return blockers


def _ref_first_fit(shadow, unit, busy, ii, oid, lo, hi, early):
    if lo > hi:
        return None, 0
    width = hi - lo + 1
    if busy > ii:
        return None, width
    span = min(width, ii)
    candidates = range(lo, lo + span) if early else range(hi, hi - span, -1)
    for cycle in candidates:
        if not _ref_conflicts(shadow, unit, busy, ii, oid, cycle):
            return cycle, (cycle - lo + 1) if early else (hi - cycle + 1)
    return None, width


def _ref_rows(shadow, ii):
    rows = {
        (class_index, instance): [-1] * ii
        for class_index, unit_class in enumerate(MACHINE.unit_classes)
        for instance in range(unit_class.count)
    }
    for (unit, row), oid in shadow.items():
        rows[unit][row] = oid
    return rows


@settings(max_examples=200, deadline=None)
@given(
    loop_key=st.sampled_from(["fig1", "div"]),
    ii=st.integers(min_value=1, max_value=40),
    actions=st.lists(
        st.tuples(
            st.integers(0, 30), st.integers(0, 120), st.booleans()
        ),
        max_size=25,
    ),
    queries=st.lists(
        st.tuples(
            st.integers(0, 30),
            st.integers(0, 120),
            st.integers(0, 90),
            st.booleans(),
        ),
        max_size=15,
    ),
)
def test_mrt_matches_per_cycle_reference(loop_key, ii, actions, queries):
    loop = LOOPS[loop_key]
    binding = MACHINE.bind_units(loop)
    ops = [op for op in loop.real_ops if op.oid in binding]
    mrt = ModuloResourceTable(MACHINE, ii, binding)
    shadow = {}
    placed = {}
    for op_index, cycle, do_remove in actions:
        op = ops[op_index % len(ops)]
        unit = binding[op.oid]
        busy = MACHINE.busy_cycles(op)
        if do_remove and op.oid in placed:
            at = placed.pop(op.oid)
            mrt.remove(op, at)
            for offset in range(busy):
                key = (unit, (at + offset) % ii)
                if shadow.get(key) == op.oid:
                    del shadow[key]
            assert mrt.rows() == _ref_rows(shadow, ii)
            continue
        if op.oid in placed:
            continue
        expected = _ref_conflicts(shadow, unit, busy, ii, op.oid, cycle)
        assert mrt.conflicts(op, cycle) == expected
        assert mrt.fits(op, cycle) == (not expected)
        if expected:
            continue
        mrt.place(op, cycle)
        placed[op.oid] = cycle
        for offset in range(busy):
            shadow[(unit, (cycle + offset) % ii)] = op.oid
        assert mrt.rows() == _ref_rows(shadow, ii)
    for op_index, lo, width, early in queries:
        op = ops[op_index % len(ops)]
        unit = binding[op.oid]
        busy = MACHINE.busy_cycles(op)
        hi = lo + width - 1  # width 0 exercises the empty window
        assert mrt.first_fit(op, lo, hi, early) == _ref_first_fit(
            shadow, unit, busy, ii, op.oid, lo, hi, early
        )
