"""Unit and property tests for rotating register allocation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bounds.lifetimes import Lifetime, icr_values, rr_values, schedule_lifetimes
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine
from repro.regalloc import (
    FIT_STRATEGIES,
    ORDERINGS,
    Allocation,
    allocate_registers,
    allocate_rotating,
)
from repro.regalloc.files import _extend_live_ins, _loop_carried_vids
from repro.regalloc.rotating import _order, _try_pack
from repro.workloads import named_kernels

from tests.conftest import on_targets
from tests.regalloc.arc_scan import reference_allocation


class _FakeValue:
    def __init__(self, vid):
        self.vid = vid


def _lifetimes(spans):
    return [Lifetime(_FakeValue(i), s, e) for i, (s, e) in enumerate(spans)]


def test_empty_allocation():
    allocation = allocate_rotating([], ii=4)
    assert allocation.registers == 0
    assert allocation.specifiers == {}


def test_single_value_single_register():
    allocation = allocate_rotating(_lifetimes([(0, 3)]), ii=4)
    assert allocation.registers == 1
    assert allocation.max_live == 1


def test_long_lifetime_needs_multiple_registers():
    # Lifetime of 10 cycles at II=4 spans ceil(10/4) = 3 registers.
    allocation = allocate_rotating(_lifetimes([(0, 10)]), ii=4)
    assert allocation.registers == 3


def test_figure3_naive_values():
    """x in [0,5), y in [1,4) at II=2: MaxLive 4, achievable exactly."""
    allocation = allocate_rotating(_lifetimes([(0, 5), (1, 4)]), ii=2)
    assert allocation.max_live == 4
    assert allocation.registers == allocation.max_live
    assert allocation.overshoot == 0


def test_zero_length_lifetimes_ignored():
    allocation = allocate_rotating(_lifetimes([(3, 3), (0, 2)]), ii=4)
    assert allocation.registers == 1
    assert 1 in allocation.specifiers  # only the live value got a register


@pytest.mark.parametrize("fit", FIT_STRATEGIES)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_all_strategy_combinations_produce_valid_packings(fit, ordering):
    spans = [(0, 7), (1, 4), (2, 9), (3, 5), (5, 11), (6, 8)]
    ii = 3
    lifetimes = _lifetimes(spans)
    allocation = allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
    assert_no_shared_cells(lifetimes, allocation)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        allocate_rotating(_lifetimes([(0, 2)]), ii=2, fit="magic")
    with pytest.raises(ValueError):
        allocate_rotating(_lifetimes([(0, 2)]), ii=2, ordering="magic")


def assert_no_shared_cells(lifetimes, allocation):
    """No (physical register, cycle) cell is held by two value instances.

    Instance k of value v holds physical register ``(-s_v - k) mod R``
    during cycles ``[start_v + k*II, end_v + k*II)``: the kernel encodes
    ``-s_v`` (repro.codegen.kernel) and the VLIW simulator reads
    specifier ``x`` in iteration k at ``(x - k) mod R``.  Instance k + R
    holds the same register R*II cycles later, so the occupancy repeats
    with period R*II: every instance that meets the window [0, R*II) is
    enumerated, cell by cell.
    """
    registers, ii = allocation.registers, allocation.ii
    window = registers * ii
    owner = {}
    for lifetime in lifetimes:
        if lifetime.length <= 0:
            continue
        vid = lifetime.value.vid
        specifier = allocation.specifiers[vid]
        for k in range(-(lifetime.end // ii) - 1, (window - lifetime.start) // ii + 1):
            register = (-specifier - k) % registers
            first = max(0, lifetime.start + k * ii)
            for cycle in range(first, min(window, lifetime.end + k * ii)):
                cell = (register, cycle)
                assert cell not in owner, (
                    f"values {owner[cell]} and {vid} both hold register {register}"
                    f" at cycle {cycle} (mod {window})"
                )
                owner[cell] = vid


def test_cell_oracle_rejects_a_collision():
    # [0, 3) and [4, 5) never overlap in time, but at II=2 instance 1 of
    # the first value holds register 1 for cycles [2, 5), and so does
    # instance 0 of the second for [4, 5).
    lifetimes = _lifetimes([(0, 3), (4, 5)])
    colliding = Allocation(registers=2, ii=2, specifiers={0: 0, 1: 1}, max_live=2)
    with pytest.raises(AssertionError, match="both hold register"):
        assert_no_shared_cells(lifetimes, colliding)


@st.composite
def random_lifetime_sets(draw):
    ii = draw(st.integers(min_value=1, max_value=8))
    count = draw(st.integers(min_value=1, max_value=12))
    spans = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=30))
        length = draw(st.integers(min_value=1, max_value=25))
        spans.append((start, start + length))
    fit = draw(st.sampled_from(FIT_STRATEGIES))
    ordering = draw(st.sampled_from(ORDERINGS))
    return ii, spans, fit, ordering


@given(random_lifetime_sets())
@settings(max_examples=80, deadline=None)
def test_random_packings_are_conflict_free_and_near_maxlive(case):
    ii, spans, fit, ordering = case
    lifetimes = _lifetimes(spans)
    allocation = allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
    assert_no_shared_cells(lifetimes, allocation)
    # The paper's empirical claim: allocation lands within a handful of
    # registers of the MaxLive bound.  The cushion must scale with the
    # widest single value: one lifetime spanning ceil(len/II) registers
    # can force that much slack on its own (e.g. a 16-cycle value at
    # II=2 occupies 8 registers while MaxLive counts it once per cycle).
    assert allocation.registers >= allocation.max_live
    widest = max(-(-(end - start) // ii) for start, end in spans)
    assert allocation.overshoot <= 6 + widest


@on_targets(named_kernels())
def test_kernel_register_files_are_conflict_free(program, target):
    """The RR and ICR packings ``allocate_registers`` returns, checked
    against the lifetimes it packs (live-ins extended to cycle II - 1)."""
    machine = build_machine(target)
    loop = compile_loop(program)
    ddg = build_ddg(loop, machine)
    schedule = modulo_schedule(loop, machine, ddg=ddg).schedule
    assignment = allocate_registers(schedule, ddg)
    files = ((rr_values(loop), assignment.rr), (icr_values(loop), assignment.icr))
    for values, allocation in files:
        lifetimes = schedule_lifetimes(loop, ddg, schedule.times, schedule.ii, values)
        extended = _extend_live_ins(lifetimes, _loop_carried_vids(loop), schedule.ii)
        assert_no_shared_cells(extended, allocation)


def test_sizes_are_tried_in_order_because_greedy_success_is_not_monotone():
    # first_fit/length packs these into 27 registers but not 26 or 28, so
    # a search that skipped or bisected sizes could answer 29.
    lifetimes = _lifetimes(
        [(17, 19), (11, 15), (18, 33), (1, 16), (19, 23), (6, 8), (15, 19), (14, 20)]
    )
    ordered = _order(lifetimes, "length")
    assert [_try_pack(ordered, 2, r, "first_fit") is not None for r in (26, 27, 28, 29)] == [
        False, True, False, True,
    ]
    assert allocate_rotating(lifetimes, 2, fit="first_fit", ordering="length").registers == 27


@st.composite
def wide_lifetime_sets(draw):
    """II 1-40 and lifetimes up to 200 cycles, so the circle runs past 64
    cells.  Starts and ends are often drawn from earlier lifetimes'
    endpoints, which makes adjacency chains and butting ties; a lifetime
    a whole number of turns long fills the circle at its floor."""
    ii = draw(st.integers(min_value=1, max_value=40))
    spans = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        points = sorted({point for span in spans for point in span})
        if points and draw(st.booleans()):
            start = draw(st.sampled_from(points))
        else:
            start = draw(st.integers(min_value=0, max_value=240))
        later = [point for point in points if point > start]
        if later and draw(st.booleans()):
            end = draw(st.sampled_from(later))
        else:
            end = start + draw(st.integers(min_value=1, max_value=200))
        spans.append((start, end))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=240))
        turns = draw(st.integers(min_value=1, max_value=max(1, 200 // ii)))
        spans.insert(draw(st.integers(0, len(spans))), (start, start + turns * ii))
    return ii, spans


@given(wide_lifetime_sets())
@example((4, [(3, 23)]))  # one lifetime as long as the whole circle
@example((3, [(0, 4), (4, 9), (4, 7), (9, 12), (7, 15), (0, 12)]))  # chains and ties
@settings(max_examples=100, deadline=None)
def test_packing_matches_the_arc_scan_packer(case):
    ii, spans = case
    lifetimes = _lifetimes(spans)
    for fit in FIT_STRATEGIES:
        for ordering in ORDERINGS:
            try:
                expected = reference_allocation(lifetimes, ii, fit, ordering)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
                continue
            allocation = allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
            assert (allocation.registers, allocation.specifiers) == expected, (
                f"{fit}/{ordering}"
            )
