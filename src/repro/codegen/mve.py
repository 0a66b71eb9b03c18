"""Modulo variable expansion (MVE) — pipelining without rotating files.

On a conventional machine, a value live longer than II cycles cannot
target the same register in adjacent iterations (§2.3).  Without the
Cydra's rotating files, the loop must be *unrolled* and register
specifiers renamed: value v needs ``q_v = ceil(lifetime_v / II)``
distinct names, and the kernel is replicated U times so each copy can
refer to its iteration's name statically.  The paper (citing Rau et al.
'92 and Lam) notes this "can result in a large amount of code
expansion" — which is precisely what the rotating register file avoids.

Two classic naming policies are provided:

* ``minimal``: U = lcm of all q_v; value v cycles through exactly q_v
  names (copy k uses name ``k mod q_v``).  Fewest registers, but U can
  blow up (lcm of mixed widths).
* ``uniform``: U = max of all q_v; every value gets U names (copy k uses
  name ``k mod U``).  Bounded unrolling, most registers.
* ``power2``: each q_v rounds up to the next power of two, so
  U = max(q'_v) and every width divides U — the classic compromise
  (bounded unrolling, modestly more registers than minimal).

Code size accounting includes the prologue and epilogue a
non-predicated machine needs (stages-1 partial copies each), giving the
code-expansion factor the paper's Figure-2 discussion alludes to:

    expansion = (prologue + U * kernel + epilogue) / kernel
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.bounds.lifetimes import rr_values, schedule_lifetimes
from repro.ir.ddg import DDG, build_ddg
from repro.ir.loop import LoopBody
from repro.core.schedule import Schedule


def _lcm(values: List[int]) -> int:
    result = 1
    for value in values:
        result = result * value // math.gcd(result, value)
    return result


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


@dataclasses.dataclass
class MVEPlan:
    """Register-naming plan for one modulo-variable-expanded loop."""

    loop: LoopBody
    schedule: Schedule
    policy: str
    unroll: int  # U: kernel replication factor
    names_per_value: Dict[int, int]  # vid -> q_v (or U under "uniform")
    base_name: Dict[int, int]  # vid -> first register name index

    @property
    def total_registers(self) -> int:
        """Static registers needed for the expanded loop variants."""
        return sum(self.names_per_value.values())

    def name_of(self, vid: int, iteration: int) -> int:
        """Register name holding value ``vid``'s iteration-``iteration``
        instance."""
        width = self.names_per_value[vid]
        return self.base_name[vid] + (iteration % width)

    # ------------------------------------------------------------------
    # Code-size accounting
    # ------------------------------------------------------------------
    @property
    def kernel_ops(self) -> int:
        return len(self.loop.real_ops)

    @property
    def stages(self) -> int:
        return self.schedule.stages

    @property
    def prologue_ops(self) -> int:
        """Ramp-up code: stage s of the prologue issues the ops of
        stages 0..s, for s = 0..stages-2."""
        per_stage = self._ops_per_stage()
        return sum(
            sum(per_stage[: s + 1]) for s in range(self.stages - 1)
        )

    @property
    def epilogue_ops(self) -> int:
        """Ramp-down code: mirrors the prologue with trailing stages."""
        per_stage = self._ops_per_stage()
        return sum(
            sum(per_stage[s + 1 :]) for s in range(self.stages - 1)
        )

    def _ops_per_stage(self) -> List[int]:
        counts = [0] * self.stages
        for op in self.loop.real_ops:
            counts[self.schedule.times[op.oid] // self.schedule.ii] += 1
        return counts

    @property
    def total_ops(self) -> int:
        return self.prologue_ops + self.unroll * self.kernel_ops + self.epilogue_ops

    @property
    def expansion(self) -> float:
        """Emitted ops relative to one kernel copy (kernel-only = 1.0)."""
        return self.total_ops / max(1, self.kernel_ops)


def plan_mve(
    schedule: Schedule,
    ddg: Optional[DDG] = None,
    policy: str = "minimal",
    unroll_cap: int = 512,
) -> MVEPlan:
    """Compute the modulo-variable-expansion plan for a schedule.

    Raises ValueError for an unknown policy, or RuntimeError when the
    ``minimal`` policy's lcm exceeds ``unroll_cap`` (the degenerate case
    rotating files exist to avoid).
    """
    if policy not in ("minimal", "uniform", "power2"):
        raise ValueError(f"unknown MVE policy {policy!r}")
    loop = schedule.loop
    if ddg is None:
        ddg = build_ddg(loop, schedule.machine)
    ii = schedule.ii
    lifetimes = schedule_lifetimes(loop, ddg, schedule.times, ii, rr_values(loop))

    widths: Dict[int, int] = {}
    for lifetime in lifetimes:
        if lifetime.length <= 0:
            continue
        widths[lifetime.value.vid] = max(1, math.ceil(lifetime.length / ii))
    if not widths:
        widths = {}
    q_values = list(widths.values()) or [1]

    if policy == "minimal":
        unroll = _lcm(q_values)
        if unroll > unroll_cap:
            raise RuntimeError(
                f"minimal MVE of {loop.name} needs {unroll}x unrolling "
                f"(cap {unroll_cap}); use the power2/uniform policy or a "
                "rotating file"
            )
        names = dict(widths)
    elif policy == "power2":
        names = {vid: _next_power_of_two(q) for vid, q in widths.items()}
        unroll = max(names.values(), default=1)
    else:
        unroll = max(q_values)
        names = {vid: unroll for vid in widths}

    base: Dict[int, int] = {}
    cursor = 0
    for vid in sorted(names):
        base[vid] = cursor
        cursor += names[vid]
    return MVEPlan(
        loop=loop,
        schedule=schedule,
        policy=policy,
        unroll=unroll,
        names_per_value=names,
        base_name=base,
    )


def validate_mve_naming(plan: MVEPlan, ddg: Optional[DDG] = None) -> List[str]:
    """Check that no two simultaneously-live instances share a name.

    Instance (v, k) holds name ``name_of(v, k)`` during
    ``[start_v + k*II, end_v + k*II)``; the plan is correct iff all
    same-name intervals are disjoint.  Checking one full naming period
    (U + stages extra iterations) against all overlapping neighbors is
    exhaustive because the pattern repeats with period U.
    """
    loop, schedule = plan.loop, plan.schedule
    if ddg is None:
        ddg = build_ddg(loop, schedule.machine)
    ii = schedule.ii
    lifetimes = [
        lt
        for lt in schedule_lifetimes(loop, ddg, schedule.times, ii, rr_values(loop))
        if lt.length > 0
    ]
    horizon = plan.unroll + schedule.stages + 2
    intervals: List[Tuple[int, int, int, str]] = []
    for lifetime in lifetimes:
        vid = lifetime.value.vid
        for k in range(horizon):
            intervals.append(
                (
                    plan.name_of(vid, k),
                    lifetime.start + k * ii,
                    lifetime.end + k * ii,
                    f"{lifetime.value.name}@{k}",
                )
            )
    violations = []
    by_name: Dict[int, List[Tuple[int, int, str]]] = {}
    for name, start, end, tag in intervals:
        by_name.setdefault(name, []).append((start, end, tag))
    for name, spans in by_name.items():
        spans.sort()
        for (s1, e1, t1), (s2, e2, t2) in zip(spans, spans[1:]):
            if s2 < e1:
                violations.append(
                    f"register r{name}: {t1} [{s1},{e1}) overlaps {t2} [{s2},{e2})"
                )
    return violations
