"""Reference rotating-register packer: one walk over the placed arcs per
lifetime, with the blocked specifiers of each arc in closed form.

This is the packer ``repro.regalloc.rotating`` used before it kept the
circle as bitsets.  It shares no code with that module: the ordering,
the per-arc blocked runs, the three fits and the MaxLive floor are all
restated here, so tests can require that ``allocate_rotating`` returns
this packer's register count and every specifier.

``compare_corpus`` runs that comparison over a corpus (see the module's
``__main__``)::

    PYTHONPATH=src python -m tests.regalloc.arc_scan 300
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple


def reference_allocation(
    lifetimes: Sequence, ii: int, fit: str, ordering: str, max_overshoot: int = 64
) -> Tuple[int, Dict[int, int]]:
    """``(registers, {vid: specifier})`` as the arc-scan packer gives them;
    RuntimeError past ``max_overshoot`` registers above the floor."""
    live = [lt for lt in lifetimes if lt.length > 0]
    if not live:
        return 0, {}
    ordered = _order(live, ordering)
    floor_r = max(1, _cell_max_live(live, ii), *(-(-lt.length // ii) for lt in live))
    for registers in range(floor_r, floor_r + max_overshoot + 1):
        specifiers = _try_pack(ordered, ii, registers, fit)
        if specifiers is not None:
            return registers, specifiers
    raise RuntimeError(
        f"could not pack {len(live)} lifetimes within MaxLive + {max_overshoot}"
    )


def _cell_max_live(lifetimes: Sequence, ii: int) -> int:
    """MaxLive counted one live cycle at a time."""
    columns = [0] * ii
    for lifetime in lifetimes:
        for cycle in range(lifetime.start, lifetime.end):
            columns[cycle % ii] += 1
    return max(columns)


def _order(lifetimes: Sequence, ordering: str) -> List:
    if ordering == "start":
        return sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    if ordering == "length":
        return sorted(lifetimes, key=lambda lt: (-lt.length, lt.start))
    remaining = sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    chained: List = []
    while remaining:
        if chained:
            previous_end = chained[-1].end
            adjacent = next(
                (i for i, lt in enumerate(remaining) if lt.start == previous_end), None
            )
            if adjacent is not None:
                chained.append(remaining.pop(adjacent))
                continue
        chained.append(remaining.pop(0))
    return chained


def _try_pack(
    ordered: Sequence, ii: int, registers: int, fit: str
) -> Optional[Dict[int, int]]:
    circumference = registers * ii
    arcs: List[Tuple[int, int]] = []  # placed (position in [0, C), length)
    specifiers: Dict[int, int] = {}
    for lifetime in ordered:
        start, length = lifetime.start, lifetime.length
        free = _free_specifiers(arcs, start, length, ii, registers)
        if not free:
            return None
        specifier = _choose(fit, free, arcs, start, length, ii, circumference)
        arcs.append(((start - specifier * ii) % circumference, length))
        specifiers[lifetime.value.vid] = specifier
    return specifiers


def _free_specifiers(
    arcs: Sequence[Tuple[int, int]], start: int, length: int, ii: int, registers: int
) -> int:
    """Bit s is set iff specifier s places the lifetime clear of every arc.

    Specifier s puts the lifetime at ``p(s) = (start - s*II) mod C``.  It
    meets a placed arc at position b of length lb iff ``(p(s) - b) mod C``
    lies in ``[0, lb)`` or ``(C - length, C)``, that is iff ``(p(s) +
    length - 1 - b) mod C < length + lb - 1``.  Over s that offset takes
    the values ``r + II*((j0 - s) mod R)`` with ``j0, r =
    divmod((start + length - 1 - b) mod C, II)``, so the arc blocks one
    circular run of ``ceil((length + lb - 1 - r) / II)`` specifiers
    ending at j0; a run of R or more blocks them all.
    """
    circumference = registers * ii
    last = start + length - 1
    blocked = 0
    for position, placed in arcs:
        j0, r = divmod((last - position) % circumference, ii)
        run = (length + placed - 2 - r) // ii + 1
        if run >= registers:
            return 0
        if run > 0:
            bits = ((1 << run) - 1) << ((j0 - run + 1) % registers)
            blocked |= bits | bits >> registers
    return ~blocked & ((1 << registers) - 1)


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _choose(
    fit: str,
    free: int,
    arcs: Sequence[Tuple[int, int]],
    start: int,
    length: int,
    ii: int,
    circumference: int,
) -> int:
    """The specifier ``fit`` picks from the ``free`` mask."""
    if fit == "first_fit" or not arcs:
        return _lowest(free)
    if fit == "end_fit":
        # Prefer a specifier that butts the lifetime against an arc's end
        # e: the one with s*II == (start - e) mod C, if II divides it.
        butting = 0
        for position, placed in arcs:
            offset = (start - position - placed) % circumference
            if offset % ii == 0:
                butting |= 1 << (offset // ii)
        return _lowest(butting & free or free)
    # best_fit: the first specifier leaving the smallest gap between the
    # lifetime's end and the next arc start (tightest leftover hole).
    starts = sorted(position for position, _ in arcs)
    best, best_gap = -1, circumference
    while free:
        specifier = _lowest(free)
        free &= free - 1
        end = (start - specifier * ii + length) % circumference
        index = bisect.bisect_left(starts, end)
        gap = starts[index] - end if index < len(starts) else starts[0] + circumference - end
        if gap < best_gap:
            best, best_gap = specifier, gap
    return best


def compare_corpus(count: int, seed: int = 1993) -> int:
    """Compare ``allocate_rotating`` with this packer on the RR and ICR
    lifetimes ``allocate_registers`` builds, for ``paper_corpus(count,
    seed)`` on every registry target under every fit x ordering.

    Returns the number of cases compared; raises AssertionError naming
    the first (loop, target, file, fit/ordering) whose register count or
    specifiers differ.
    """
    from repro.bounds.lifetimes import icr_values, rr_values, schedule_lifetimes
    from repro.core import modulo_schedule
    from repro.frontend import compile_loop
    from repro.ir import build_ddg
    from repro.machine import build_machine, machine_names
    from repro.regalloc import FIT_STRATEGIES, ORDERINGS, allocate_rotating
    from repro.regalloc.files import _extend_live_ins, _loop_carried_vids
    from repro.workloads import paper_corpus

    cases = 0
    for target in machine_names():
        machine = build_machine(target)
        for program in paper_corpus(count, seed):
            loop = compile_loop(program)
            ddg = build_ddg(loop, machine)
            result = modulo_schedule(loop, machine, ddg=ddg)
            assert result.success, f"{program.name} on {target}: no schedule"
            times, ii = result.schedule.times, result.schedule.ii
            carried = _loop_carried_vids(loop)
            for file, values in (("rr", rr_values(loop)), ("icr", icr_values(loop))):
                lifetimes = _extend_live_ins(
                    schedule_lifetimes(loop, ddg, times, ii, values), carried, ii
                )
                for fit in FIT_STRATEGIES:
                    for ordering in ORDERINGS:
                        got = allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
                        expected = reference_allocation(lifetimes, ii, fit, ordering)
                        assert (got.registers, got.specifiers) == expected, (
                            f"{program.name} on {target}, {file} file, {fit}/{ordering}:"
                            f" {got.registers} registers {got.specifiers},"
                            f" reference {expected[0]} {expected[1]}"
                        )
                        cases += 1
    return cases


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    try:
        cases = compare_corpus(count)
    except AssertionError as error:
        sys.exit(f"allocate_rotating differs from the arc-scan packer: {error}")
    print(f"{cases} cases: allocate_rotating matches the arc-scan packer")
