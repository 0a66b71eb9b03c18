"""Schedule objects and scheduler statistics."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

from repro.ir.loop import LoopBody
from repro.machine.machine import Machine, UnitInstance
from repro.machine.mrt import ModuloResourceTable


@dataclasses.dataclass
class SchedulerStats:
    """Work counters for one scheduling run (paper §6's effort metrics)."""

    attempts: int = 0  # IIs tried (step-6 restarts = attempts - 1)
    placements: int = 0  # central-loop iterations (ops placed, incl. re-placements)
    forced: int = 0  # step-3 invocations (no conflict-free slot existed)
    ejections: int = 0  # operations ejected from the partial schedule
    mindist_seconds: float = 0.0  # the MinDist closure build alone
    setup_seconds: float = 0.0  # rest of attempt construction (binding, MinLT, ...)
    scheduling_seconds: float = 0.0

    @property
    def backtracked(self) -> bool:
        return self.ejections > 0

    def merge(self, other: "SchedulerStats") -> None:
        self.attempts += other.attempts
        self.placements += other.placements
        self.forced += other.forced
        self.ejections += other.ejections
        self.mindist_seconds += other.mindist_seconds
        self.setup_seconds += other.setup_seconds
        self.scheduling_seconds += other.scheduling_seconds


@dataclasses.dataclass
class Schedule:
    """A complete modulo schedule: issue cycle for every operation."""

    loop: LoopBody
    machine: Machine
    ii: int
    times: Dict[int, int]
    binding: Dict[int, UnitInstance]

    @property
    def span(self) -> int:
        """Schedule length of one iteration (Stop's issue cycle)."""
        return self.times[self.loop.stop.oid]

    @property
    def stages(self) -> int:
        """Number of pipeline stages (kernel copies in flight)."""
        return max(1, math.ceil(self.span / self.ii))

    def resource_table(self) -> ModuloResourceTable:
        """A fresh modulo resource table with every real op placed at its
        issue time (raises ValueError if two ops collide)."""
        table = ModuloResourceTable(self.machine, self.ii, self.binding)
        for op in self.loop.real_ops:
            table.place(op, self.times[op.oid])
        return table

    def render(self) -> str:
        """Readable listing: one line per op, sorted by issue cycle."""
        lines = [f"schedule {self.loop.name}: II={self.ii}, span={self.span}, stages={self.stages}"]
        for op in sorted(self.loop.ops, key=lambda op: (self.times[op.oid], op.oid)):
            lines.append(f"  t={self.times[op.oid]:4d}  row={self.times[op.oid] % self.ii:3d}  {op!r}")
        return "\n".join(lines)


@dataclasses.dataclass
class ScheduleResult:
    """Outcome of driving a scheduler over escalating IIs."""

    loop: LoopBody
    machine: Machine
    schedule: Optional[Schedule]
    mii: int
    res_mii: int
    rec_mii: int
    stats: SchedulerStats
    last_attempted_ii: int

    @property
    def success(self) -> bool:
        return self.schedule is not None

    @property
    def ii(self) -> int:
        """Achieved II on success; last attempted II on failure (the
        paper reports Cydrome's 14 failures this way in Table 4)."""
        if self.schedule is not None:
            return self.schedule.ii
        return self.last_attempted_ii

    @property
    def optimal(self) -> bool:
        return self.success and self.schedule.ii == self.mii
