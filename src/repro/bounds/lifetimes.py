"""Lifetime bounds and register-pressure measurement (paper §3.2, §5.1).

* ``MinLT(v)``: schedule-independent lower bound on the length of value
  v's lifetime at a given II — ``max over flow uses (omega*II +
  MinDist(def, use))``.
* ``MinAvg = sum(ceil(MinLT(v) / II))``: schedule-independent lower
  bound on the loop's register pressure.
* ``LiveVector`` / ``MaxLive``: for a concrete schedule, the number of
  live values in each of the II columns (lifetimes wrapped modulo II)
  and its maximum — the schedule's register-pressure lower bound, which
  Rau et al.'s allocators almost always achieve.

All functions take an explicit register-file selector so RR pressure
(data variants) and ICR pressure (predicates) can be measured
separately.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.bounds.mindist import MinDist
from repro.ir.ddg import DDG, ArcKind
from repro.ir.loop import LoopBody
from repro.ir.types import DType
from repro.ir.values import Value


def rr_values(loop: LoopBody) -> List[Value]:
    """Loop variants held in the rotating RR file (addresses/ints/floats)."""
    return [v for v in loop.values if v.is_variant and v.dtype is not DType.PRED]


def icr_values(loop: LoopBody) -> List[Value]:
    """Loop-variant predicates held in the rotating ICR file."""
    return [v for v in loop.values if v.is_variant and v.dtype is DType.PRED]


def gpr_count(loop: LoopBody) -> int:
    """Loop invariants kept in the GPR file (constants are immediate)."""
    return sum(1 for v in loop.values if v.is_invariant)


# ----------------------------------------------------------------------
# Schedule-independent bounds
# ----------------------------------------------------------------------
def min_lifetime(value: Value, ddg: DDG, mindist: MinDist, ii: int) -> int:
    """MinLT(v): lower bound on v's lifetime length at this II.

    Includes self-recurrence uses (their contribution is exactly
    ``omega * II``).  A value with no uses has MinLT 0.
    """
    defop = value.defop
    if defop is None:
        raise ValueError(f"{value} is not defined by an operation")
    best = 0
    for arc in ddg.flow_outputs(defop):
        if arc.value is not value:
            continue
        distance = mindist.dist(defop.oid, arc.dst)
        if arc.src == arc.dst:
            distance = 0
        if distance is None:
            continue
        best = max(best, arc.omega * ii + distance)
    return best


def min_avg(loop: LoopBody, ddg: DDG, mindist: MinDist, ii: int) -> int:
    """MinAvg: schedule-independent lower bound on RR pressure, summed
    from the MinLT table that ``LoopAnalysis.minlt`` builds with
    :func:`min_lifetime`.  ``mindist`` must be ``ddg``'s MinDist at ``ii``."""
    from repro.bounds.analysis import LoopAnalysis  # imports this module

    if mindist.ddg is not ddg or mindist.ii != ii:
        raise ValueError(f"min_avg at II={ii} needs this graph's MinDist at II={ii}")
    minlt = LoopAnalysis.of(ddg).minlt(ii)
    return sum(math.ceil(minlt[value.vid] / ii) for value in rr_values(loop))


# ----------------------------------------------------------------------
# Schedule-dependent pressure
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class Lifetime:
    """A value's lifetime in one concrete schedule: [start, end) cycles."""

    value: Value
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


def schedule_lifetimes(
    loop: LoopBody,
    ddg: DDG,
    times: Mapping[int, int],
    ii: int,
    values: Optional[Iterable[Value]] = None,
) -> List[Lifetime]:
    """Lifetimes induced by a schedule (`times` maps oid -> issue cycle).

    A value's register is reserved from its defining operation's issue
    cycle until the issue cycle of its last use, counting a use ``omega``
    iterations later at ``time(use) + omega * II`` (Figure 3's
    convention).  Values with no uses get zero-length lifetimes and are
    skipped by pressure computations.
    """
    chosen = list(values) if values is not None else rr_values(loop)
    lifetimes = []
    for value in chosen:
        defop = value.defop
        if defop is None or defop.oid not in times:
            continue
        start = times[defop.oid]
        end = start
        for arc in ddg.flow_outputs(defop):
            if arc.value is not value or arc.dst not in times:
                continue
            end = max(end, times[arc.dst] + arc.omega * ii)
        lifetimes.append(Lifetime(value, start, end))
    return lifetimes


def live_vector(lifetimes: Iterable[Lifetime], ii: int) -> List[int]:
    """Wrap lifetimes around a vector of II columns (Figure 4).

    Built from a difference array: each full wrap adds one to every
    column, and a lifetime's remainder of ``length mod II`` cycles adds
    one to a circular run of columns from ``start mod II``, that is two
    boundary steps, or four when the run wraps past column II - 1.
    """
    steps = [0] * (ii + 1)
    for lifetime in lifetimes:
        length = lifetime.length
        if length <= 0:
            continue
        full_wraps, remainder = divmod(length, ii)
        first = lifetime.start % ii
        last = first + remainder
        steps[0] += full_wraps
        steps[first] += 1
        if last > ii:
            steps[0] += 1
            last -= ii
        steps[last] -= 1
    return list(itertools.accumulate(steps[:ii]))


def max_live(lifetimes: Iterable[Lifetime], ii: int) -> int:
    """MaxLive: the peak of the LiveVector."""
    vector = live_vector(lifetimes, ii)
    return max(vector) if vector else 0


def rr_max_live(loop: LoopBody, ddg: DDG, times: Mapping[int, int], ii: int) -> int:
    """MaxLive of the RR file for one schedule."""
    return max_live(schedule_lifetimes(loop, ddg, times, ii, rr_values(loop)), ii)


def icr_usage(loop: LoopBody, ddg: DDG, times: Mapping[int, int], ii: int) -> int:
    """ICR predicate usage for one schedule.

    Predicate lifetimes wrapped modulo II, plus one iteration-control
    (staging) predicate per pipeline stage — the kernel-only code schema
    needs ``ceil(span / II)`` stage predicates to squash the prologue and
    epilogue (paper §2.2 and [19]).
    """
    pressure = max_live(schedule_lifetimes(loop, ddg, times, ii, icr_values(loop)), ii)
    span = 0
    for op in loop.real_ops:
        if op.oid in times:
            span = max(span, times[op.oid] + 1)
    stages = math.ceil(span / ii) if span else 1
    return pressure + stages
