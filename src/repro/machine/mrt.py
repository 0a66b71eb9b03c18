"""Modulo resource table (MRT).

The MRT has II rows; placing an operation at cycle ``t`` reserves its
bound unit instance at rows ``(t + k) mod II`` for every cycle ``k`` of
its busy pattern (1 cycle for pipelined units, the whole latency for
non-pipelined ones such as the divider).  No resource may be reserved
twice in the same row — the modulo constraint (paper §1).  This class
is the one place that rule is written: the schedulers and warp's
circuit packer place through it, and a finished schedule's views read
the :meth:`rows` of the table :meth:`Schedule.resource_table
<repro.core.schedule.Schedule.resource_table>` fills.

Occupancy is kept per unit instance in one Python list of ``2*II``
cells whose second half mirrors the first, so any window of up to II
consecutive cycles is one contiguous index range with no wraparound
arithmetic.  A cell holds the occupying oid (``-1`` = free), the
oid-per-cell map ejection needs.  Every query is one scalar scan of
that list: :meth:`first_fit` answers a whole ``[lo, hi]`` scan-window
question in one call, and :meth:`place` re-checks the footprint before
it writes.  Per-op footprints (bound unit, busy length) are computed
once and cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.operations import Operation
from repro.machine.machine import Machine, UnitInstance


class ModuloResourceTable:
    """Tracks unit-instance reservations modulo II.

    Each cell holds the oid of the operation occupying that (row, unit
    instance), or -1.  Operations are identified by oid so ejection can
    release exactly the right reservations.
    """

    def __init__(self, machine: Machine, ii: int, binding: Dict[int, UnitInstance]):
        if ii < 1:
            raise ValueError(f"II must be positive, got {ii}")
        self.machine = machine
        self.ii = ii
        self.binding = binding
        #: (unit_class, instance) -> 2*II oid cells (the second half
        #: mirrors the first), -1 = free; in (class, instance) order.
        self._cells: Dict[UnitInstance, List[int]] = {
            (class_index, instance): [-1] * (2 * ii)
            for class_index, unit_class in enumerate(machine.unit_classes)
            for instance in range(unit_class.count)
        }
        #: oid -> (unit instance, busy cycles), a dense list (oids are
        #: small and dense) filled lazily.
        size = (max(binding) + 1) if binding else 0
        self._footprints: List[Optional[Tuple[UnitInstance, int]]] = [None] * size

    # ------------------------------------------------------------------
    def _footprint(self, op: Operation) -> Tuple[UnitInstance, int]:
        entry = self._footprints[op.oid]
        if entry is None:
            entry = (self.binding[op.oid], self.machine.busy_cycles(op))
            self._footprints[op.oid] = entry
        return entry

    def conflicts(self, op: Operation, cycle: int) -> List[int]:
        """Oids of placed operations that block ``op`` at ``cycle``, in
        footprint-row order without repeats.

        A busy pattern longer than II necessarily collides with itself;
        that is reported as a conflict with oid -1 (unresolvable at this
        II).
        """
        if op.oid not in self.binding:
            return []
        unit, busy = self._footprint(op)
        if busy > self.ii:
            return [-1]
        row = cycle % self.ii
        blockers: List[int] = []
        for occupant in self._cells[unit][row : row + busy]:
            if occupant != -1 and occupant != op.oid and occupant not in blockers:
                blockers.append(occupant)
        return blockers

    def fits(self, op: Operation, cycle: int) -> bool:
        """True if ``op`` can be placed at ``cycle`` without conflicts."""
        return not self.conflicts(op, cycle)

    def first_fit(
        self, op: Operation, lo: int, hi: int, early: bool
    ) -> Tuple[Optional[int], int]:
        """First conflict-free cycle in ``[lo, hi]``, scanning in the
        requested direction, as ``(cycle or None, cycles scanned)``.

        ``scanned`` is the per-cycle linear-scan count (cycles tested up
        to and including the hit, or the full window length on a miss),
        which the scan-length metrics report.  Only ``min(width, II)``
        candidates are ever examined — occupancy is periodic in II, so a
        window that long with no free slot has none anywhere.
        """
        if lo > hi:
            return None, 0
        if op.oid not in self.binding:
            return (lo if early else hi), 1
        width = hi - lo + 1
        unit, busy = self._footprint(op)
        ii = self.ii
        if busy > ii:
            return None, width
        span = width if width < ii else ii
        cells = self._cells[unit]
        oid = op.oid
        first, step = (lo, 1) if early else (hi, -1)
        if busy == 1:
            # Walk the doubled list one cell a candidate: up from lo's
            # row, or down from hi's row in the mirror half.
            row = lo % ii if early else hi % ii + ii
            for index in range(span):
                occupant = cells[row]
                if occupant == -1 or occupant == oid:
                    return first + step * index, index + 1
                row += step
            return None, width
        # Non-pipelined footprint (the divider): each candidate's busy
        # rows are one contiguous range of the doubled list.
        for index in range(span):
            row = (first + step * index) % ii
            for occupant in cells[row : row + busy]:
                if occupant != -1 and occupant != oid:
                    break
            else:
                return first + step * index, index + 1
        return None, width

    def place(self, op: Operation, cycle: int) -> None:
        """Reserve ``op``'s footprint; raises if any cell is occupied,
        naming the blockers."""
        blockers = self.conflicts(op, cycle)
        if blockers:
            raise ValueError(f"resource conflict placing {op!r} at {cycle}: {blockers}")
        if op.oid not in self.binding:
            return  # pseudo op: no resources
        unit, busy = self._footprint(op)
        cells, ii = self._cells[unit], self.ii
        for row in range(cycle, cycle + busy):
            row %= ii
            cells[row] = cells[row + ii] = op.oid

    def remove(self, op: Operation, cycle: int) -> None:
        """Release the reservations ``op`` made at ``cycle``."""
        if op.oid not in self.binding:
            return
        unit, busy = self._footprint(op)
        cells, ii = self._cells[unit], self.ii
        for row in range(cycle, cycle + busy):
            row %= ii
            if cells[row] == op.oid:
                cells[row] = cells[row + ii] = -1

    def rows(self) -> Dict[UnitInstance, List[int]]:
        """Each unit instance's II cells (oid, or -1 where free), in
        (class, instance) order; copies, so the table stays private."""
        return {unit: cells[: self.ii] for unit, cells in self._cells.items()}

    def occupancy(self) -> int:
        """Total number of reserved cells (for tests and stats)."""
        return sum(self.ii - cells.count(-1) for cells in self.rows().values())

    def __repr__(self) -> str:
        return f"ModuloResourceTable(ii={self.ii}, occupied={self.occupancy()})"
