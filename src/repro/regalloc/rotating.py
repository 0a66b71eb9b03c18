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
order.  One pass over the arcs placed so far gives a lifetime's free
specifiers as an R-bit mask: each placed arc blocks one circular run of
consecutive specifiers (:func:`_free_specifiers`), so the mask costs
O(placed arcs) whatever R is.  R is still tried in order:
greedy success is not monotone in R (a packing can succeed at R, fail at
R + 1 and succeed at R + 2), so skipping ahead could return a different R.

Strategies reproduced from that paper:

* fits: ``first_fit`` (smallest specifier shift), ``best_fit``
  (tightest surviving gap), ``end_fit`` (butt the arc against an
  existing arc's end);
* orderings: ``start`` (by definition time), ``length`` (longest
  lifetime first), ``adjacency`` (start time, chained so values that
  begin where another ends come next).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

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
    # (it can butt against the same gap).
    remaining = sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    chained: List[Lifetime] = []
    while remaining:
        if chained:
            previous_end = chained[-1].end
            adjacent = next((lt for lt in remaining if lt.start == previous_end), None)
            if adjacent is not None:
                chained.append(adjacent)
                remaining.remove(adjacent)
                continue
        chained.append(remaining.pop(0))
    return chained


def _try_pack(
    ordered: Sequence[Lifetime], ii: int, registers: int, fit: str
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
