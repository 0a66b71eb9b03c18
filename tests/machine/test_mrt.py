"""Unit tests for the modulo resource table."""

import pytest

from repro.ir import DType, LoopBody, Opcode, Operand
from repro.machine import ModuloResourceTable

from tests.conftest import build_divider_loop, build_figure1_loop


def _mrt(machine, loop, ii):
    return ModuloResourceTable(machine, ii, machine.bind_units(loop))


def test_place_and_conflict_same_row(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    # Second float add bound to the single Adder conflicts at 0 and 2 (mod 2).
    assert not mrt.fits(adds[1], 0)
    assert not mrt.fits(adds[1], 2)
    assert mrt.fits(adds[1], 1)
    assert mrt.conflicts(adds[1], 2) == [adds[0].oid]


def test_modulo_wraparound(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 3)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 7)  # row 1
    assert not mrt.fits(adds[1], 1)
    assert not mrt.fits(adds[1], 4)
    assert mrt.fits(adds[1], 0)


def test_remove_releases_reservation(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    mrt.remove(adds[0], 0)
    assert mrt.occupancy() == 0
    assert mrt.fits(adds[1], 0)


def test_double_place_raises(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    with pytest.raises(ValueError):
        mrt.place(adds[1], 2)


def test_divider_footprint_spans_full_latency(machine):
    loop = build_divider_loop()
    mrt = _mrt(machine, loop, 20)
    div = next(op for op in loop.real_ops if op.opcode is Opcode.DIV_F)
    mrt.place(div, 2)
    assert mrt.occupancy() == 17


def test_divider_longer_than_ii_self_conflicts(machine):
    loop = build_divider_loop()
    mrt = _mrt(machine, loop, 10)
    div = next(op for op in loop.real_ops if op.opcode is Opcode.DIV_F)
    assert mrt.conflicts(div, 0) == [-1]


def test_two_divides_conflict_when_windows_overlap(machine):
    loop = LoopBody("twodiv")
    c = loop.invariant("c", DType.FLOAT)
    v1 = loop.new_value("v1", DType.FLOAT)
    v2 = loop.new_value("v2", DType.FLOAT)
    loop.add_op(Opcode.DIV_F, v1, [Operand(c), Operand(c)])
    loop.add_op(Opcode.DIV_F, v2, [Operand(c), Operand(c)])
    loop.finalize()
    mrt = _mrt(machine, loop, 40)
    divs = [op for op in loop.real_ops if op.opcode is Opcode.DIV_F]
    mrt.place(divs[0], 0)
    assert not mrt.fits(divs[1], 10)  # inside the 17-cycle window
    assert not mrt.fits(divs[1], 39)  # wraps into cycle 0..16? no: 39..15
    assert mrt.fits(divs[1], 17)


def test_pseudo_ops_need_no_resources(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    mrt.place(loop.start, 0)
    mrt.place(loop.stop, 5)
    assert mrt.occupancy() == 0
    assert mrt.fits(loop.start, 0)


def test_rows_show_occupants(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 1)
    rows = mrt.rows()
    assert len(rows) == machine.total_instances()
    adder = next(
        index for index, unit_class in enumerate(machine.unit_classes)
        if unit_class.name == "Adder"
    )
    assert rows[(adder, 0)] == [-1, adds[0].oid]
    assert all(cells == [-1, -1] for unit, cells in rows.items() if unit != (adder, 0))
    rows[(adder, 0)][1] = -1  # a copy: the table keeps its reservation
    assert mrt.rows()[(adder, 0)] == [-1, adds[0].oid]


def test_place_longer_than_ii_raises(machine):
    loop = build_divider_loop()
    mrt = _mrt(machine, loop, 10)
    div = next(op for op in loop.real_ops if op.opcode is Opcode.DIV_F)
    with pytest.raises(ValueError):
        mrt.place(div, 0)


def test_place_conflict_message_names_blockers(machine):
    # place() verifies the footprint with a cheap occupancy re-check; the
    # full blocker list must still be rebuilt for the error message.
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 2)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    with pytest.raises(ValueError, match=str(adds[0].oid)):
        mrt.place(adds[1], 2)


def test_first_fit_matches_linear_scan_accounting(machine):
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 3)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    # Early scan: rows 0 (occupied), 1 (free) -> hit at 1, 2 scanned.
    assert mrt.first_fit(adds[1], 0, 10, early=True) == (1, 2)
    # Late scan: rows 10 % 3 = 1 free immediately -> 1 scanned.
    assert mrt.first_fit(adds[1], 0, 10, early=False) == (10, 1)
    # Empty window.
    assert mrt.first_fit(adds[1], 5, 4, early=True) == (None, 0)


def test_first_fit_miss_reports_full_window_scanned(machine):
    # At II=1 the single Adder row is saturated by one placement; a
    # window of any width is a miss and the per-cycle scan accounting
    # reports the whole window, not the clamped II candidates.
    loop = build_figure1_loop()
    mrt = _mrt(machine, loop, 1)
    adds = [op for op in loop.real_ops if op.opcode is Opcode.ADD_F]
    mrt.place(adds[0], 0)
    assert mrt.first_fit(adds[1], 0, 10, early=True) == (None, 11)
    assert mrt.first_fit(adds[1], 0, 10, early=False) == (None, 11)
