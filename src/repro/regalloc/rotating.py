"""Rotating-register allocation (the Rau et al. PLDI'92 substrate, §3.2).

In a rotating file of R registers that rotates once per II cycles, give
each value v a *specifier* ``s_v``; instance k of v then lives in
physical register ``(-s_v - k) mod R`` for ``[start_v + k*II,
end_v + k*II)`` (the kernel encodes ``-s_v``, see
:mod:`repro.codegen.kernel`).  Two values collide on some physical
register at some time iff their arcs

    arc(v) = [start_v - s_v * II,  start_v - s_v * II + lifetime_v)

overlap modulo ``R * II``.  Allocation therefore reduces to packing
circular arcs of fixed length whose positions slide only in steps of II
(the phase ``start_v mod II`` is fixed by the schedule) — the "wand"
model.  MaxLive is an absolute lower bound on R; the paper leans on the
empirical result that greedy packing almost always achieves MaxLive (or
overshoots by a register or two), which justifies approximating register
pressure by MaxLive throughout the evaluation.

For each R from that floor upward, lifetimes are placed greedily in
order.  The circle's ``C = R * II`` cells are kept as three bitsets: the
cells inside placed arcs, each arc's first cell and each arc's end cell.
A lifetime's free positions come from the free cells in a few big-int
operations, without visiting any placed arc: AND-ing the doubled free
mask with itself shifted right by 1, 2, 4, ... leaves bit p set iff
cells p .. p+length-1 are all free, and a comb of every II-th bit keeps
the lifetime's phase.  R is still tried in order: greedy success is not
monotone in R (a packing can succeed at R, fail at R + 1 and succeed at
R + 2), so skipping ahead could return a different R.

Strategies reproduced from that paper:

* fits: ``first_fit`` (smallest specifier shift), ``best_fit``
  (tightest surviving gap), ``end_fit`` (butt the arc against an
  existing arc's end);
* orderings: ``start`` (by definition time), ``length`` (longest
  lifetime first), ``adjacency`` (start time, chained so values that
  begin where another ends come next).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.bounds.lifetimes import Lifetime, max_live

FIT_STRATEGIES = ("first_fit", "best_fit", "end_fit")
ORDERINGS = ("start", "length", "adjacency")


@dataclasses.dataclass
class Allocation:
    """Result of rotating allocation for one register file."""

    registers: int  # file size R actually used
    ii: int
    specifiers: Dict[int, int]  # value vid -> specifier s_v
    max_live: int

    @property
    def overshoot(self) -> int:
        """Registers used beyond the MaxLive lower bound."""
        return self.registers - self.max_live


def allocate_rotating(
    lifetimes: Sequence[Lifetime],
    ii: int,
    fit: str = "end_fit",
    ordering: str = "adjacency",
    max_overshoot: int = 64,
) -> Allocation:
    """Allocate lifetimes to a rotating file of minimal size.

    Grows R from the MaxLive lower bound until greedy packing succeeds;
    raises RuntimeError past ``max_overshoot`` extra registers (never
    observed in practice — the test suite asserts small overshoots).
    """
    if fit not in FIT_STRATEGIES:
        raise ValueError(f"unknown fit {fit!r}; pick from {FIT_STRATEGIES}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; pick from {ORDERINGS}")
    live = [lt for lt in lifetimes if lt.length > 0]
    lower_bound = max_live(live, ii)
    if not live:
        return Allocation(registers=0, ii=ii, specifiers={}, max_live=0)
    ordered = _order(live, ordering)
    floor_r = max(1, lower_bound, *(-(-lt.length // ii) for lt in live))
    for registers in range(floor_r, floor_r + max_overshoot + 1):
        specifiers = _try_pack(ordered, ii, registers, fit)
        if specifiers is not None:
            return Allocation(
                registers=registers,
                ii=ii,
                specifiers=specifiers,
                max_live=lower_bound,
            )
    raise RuntimeError(
        f"could not pack {len(live)} lifetimes within MaxLive + {max_overshoot}"
    )


def _order(lifetimes: Sequence[Lifetime], ordering: str) -> List[Lifetime]:
    if ordering == "start":
        return sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    if ordering == "length":
        return sorted(lifetimes, key=lambda lt: (-lt.length, lt.start))
    # Adjacency: start-time order, but whenever some remaining value
    # begins exactly where the previously placed one ended, take it next
    # (it can butt against the same gap).  Each start's bucket holds its
    # lifetimes in start-time order, last first, so pop() takes the one
    # the sorted scan would reach first.
    by_start: Dict[int, List[Lifetime]] = {}
    for lifetime in reversed(sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))):
        by_start.setdefault(lifetime.start, []).append(lifetime)
    starts = sorted(by_start)
    chained: List[Lifetime] = []
    earliest = 0
    for _ in range(len(lifetimes)):
        bucket = by_start.get(chained[-1].end) if chained else None
        if not bucket:
            while not by_start[starts[earliest]]:
                earliest += 1
            bucket = by_start[starts[earliest]]
        chained.append(bucket.pop())
    return chained


def _try_pack(
    ordered: Sequence[Lifetime], ii: int, registers: int, fit: str
) -> Optional[Dict[int, int]]:
    circumference = registers * ii
    full = (1 << circumference) - 1
    comb = full // ((1 << ii) - 1)  # one bit every II cells, from cell 0
    occupied = starts = ends = 0  # cells in placed arcs; their first and end cells
    specifiers: Dict[int, int] = {}
    for lifetime in ordered:
        start, length = lifetime.start, lifetime.length
        # Bit p of ``runs`` survives iff cells p .. p+length-1 are all
        # free; the doubled mask lets a run wrap past cell C - 1.
        free = full ^ occupied
        runs = free | free << circumference
        span = 1
        while span << 1 <= length:
            runs &= runs >> span
            span <<= 1
        runs &= runs >> (length - span)
        candidates = runs & (comb << start % ii)
        if not candidates:
            return None
        # Specifier s places the lifetime at (start - s*II) mod C, so the
        # specifiers count down the circle from ``here``.
        here = start % circumference
        if fit == "best_fit" and starts:
            position = _tightest(candidates, here, length, starts, circumference)
        else:
            if fit == "end_fit":
                candidates = candidates & ends or candidates
            below = candidates & ((2 << here) - 1)
            position = (below or candidates).bit_length() - 1
        arc = ((1 << length) - 1) << position
        occupied |= (arc | arc >> circumference) & full
        starts |= 1 << position
        ends |= 1 << (position + length) % circumference
        specifiers[lifetime.value.vid] = (here - position) % circumference // ii
    return specifiers


def _tightest(candidates: int, here: int, length: int, starts: int, circumference: int) -> int:
    """The candidate position, in specifier order, that leaves the smallest
    gap between the lifetime's end and the next placed arc's start."""
    best, best_gap = -1, circumference
    below = candidates & ((2 << here) - 1)
    for group in (below, candidates ^ below):
        while group:
            position = group.bit_length() - 1
            group ^= 1 << position
            end = (position + length) % circumference
            later = starts >> end
            if later:
                gap = (later & -later).bit_length() - 1
            else:
                gap = (starts & -starts).bit_length() - 1 + circumference - end
            if gap < best_gap:
                best, best_gap = position, gap
    return best
