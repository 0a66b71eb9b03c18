"""The operation-driven slack-scheduling framework (paper §4).

One :class:`SchedulingAttempt` tries to place every operation at a fixed
II.  The central loop (§4.2) repeatedly:

1. chooses an operation (subclass hook — dynamic slack priority for the
   paper's scheduler, static priority for the Cydrome baseline);
2. searches for a conflict-free issue cycle inside the operation's
   [Estart, Lstart] window (subclass hook — bidirectional for the
   paper's scheduler, always-earliest for the baselines);
3. failing that, *forces* the operation into
   ``max(Estart(x), 1 + last placement of x)`` and ejects every placed
   operation that conflicts with it in resources or (transitively, via
   MinDist) dependences — except the loop-closing ``brtop`` (§4.4);
4. places the operation, updates the modulo resource table, and updates
   the Estart/Lstart bounds of all unplaced operations (§4.1);
5. gives up once the placement budget is exhausted, at which point the
   driver increments II and starts over (§4.2 step 6).

Bounds bookkeeping is vectorized with numpy: incremental updates after a
plain placement, full recomputation after ejections.  Each placed op
keeps its contribution to every op's Estart and Lstart as one row of
two n×n matrices, written once when it is placed, so a recomputation
is two contiguous reductions over those rows and a dependence-conflict
test reads one column of each, instead of gathering the placed set out
of ``times`` or adding its times to the whole MinDist matrix.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from repro.bounds.analysis import LoopAnalysis
from repro.bounds.mindist import MinDist
from repro.ir.loop import LoopBody
from repro.ir.operations import Operation
from repro.machine.mrt import ModuloResourceTable
from repro.core.schedule import Schedule, SchedulerStats
from repro.obs import trace as tracing
from repro.obs.observer import NULL_OBSERVER, Observer

#: Every entry of an unplaced op's contribution rows: ``-_UNPLACED`` in
#: ``_estart_rows``, ``+_UNPLACED`` in ``_lstart_rows``.  A placed op's
#: entries lie within ``2**40`` of its cycle (``|MinDist| <= 2**40``), and
#: every Estart is at least 0 and every Lstart below ``2**40`` (Start,
#: always placed at 0, reaches every op; every op reaches Stop), so a
#: sentinel never wins a reduction or fails a conflict test.
_UNPLACED = 2**42

#: Added to a placed op's choose_operation key; any unplaced op's key
#: (bounded by ~4 * Lstart^2 << 2**62) always compares below it.
PLACED_PENALTY = 2**62


class AttemptFailed(Exception):
    """The placement budget was exhausted at this II."""


def placement_budget(loop: LoopBody, budget_ratio: float) -> int:
    """The §4.2 step-6 placement budget for one attempt (shared with the
    driver so AttemptStart events can report it before construction)."""
    return max(100, int(budget_ratio * max(1, len(loop.real_ops))))


class SchedulingAttempt:
    """Scheduling state for one attempt at a fixed II.

    Everything placement-independent — bounds, unit binding, critical
    and recurrence ops, MinDist, MinLT — comes read-only from the
    graph's :class:`~repro.bounds.analysis.LoopAnalysis`, its one
    producer; the attempt owns only what placement changes (``times``
    and its contribution rows, Estart/Lstart, the MRT).

    Subclasses implement the two heuristic hooks:

    * :meth:`choose_operation` — pick the next unplaced op (step 1);
    * :meth:`choose_issue_cycle` — pick a conflict-free cycle inside the
      op's window, or None (step 2).
    """

    def __init__(
        self,
        analysis: LoopAnalysis,
        ii: int,
        budget_ratio: float = 16.0,
        tight_cap: bool = False,
        observer: Optional[Observer] = None,
    ):
        observer = observer or NULL_OBSERVER
        #: The observer's sinks, copied once so the hot path reads one
        #: attribute: ``trace`` is None unless an enabled tracer was
        #: given; spans and counts go to ``prof`` unconditionally (only
        #: an enabled profiler records them; see obs.observer).
        self.trace, self.metrics, self.prof = observer.trace, observer.metrics, observer.prof
        self._eject_counts: Optional[Dict[int, int]] = (
            {} if self.metrics is not None else None
        )
        self.analysis = analysis
        self.loop = loop = analysis.loop
        self.machine = analysis.machine
        #: A strong reference: the analysis only holds the graph weakly.
        self.ddg = ddg = analysis.ddg
        self.ii = ii
        self.binding = analysis.binding
        #: Straight-line mode: keep Lstart(Stop) at the critical path
        #: instead of rounding up to a multiple of II (§4.2's extra
        #: slack only makes sense when II bounds the schedule's period).
        self.tight_cap = tight_cap
        self.mindist = MinDist(ddg, ii, profiler=self.prof)
        if not self.mindist.feasible:
            raise ValueError(f"II={ii} is below RecMII for {loop.name}")
        self.matrix = self.mindist.matrix
        #: MinDist transposed into contiguous rows: row p is MinDist(·, p).
        self._matrix_t = np.ascontiguousarray(self.matrix.T)
        self.n = loop.n_ops
        self.start_oid = loop.start.oid
        self.stop_oid = loop.stop.oid
        brtop = loop.brtop()
        self.brtop_oid = brtop.oid if brtop is not None else None
        self.contention = analysis.res_mii > 1

        self.mrt = ModuloResourceTable(self.machine, ii, self.binding)
        self.times: Dict[int, int] = {self.start_oid: 0}
        self.last_place: Dict[int, int] = {}
        self.unplaced: Set[int] = {op.oid for op in loop.ops} - {self.start_oid}
        #: Contribution rows (§4.1), kept in lockstep with ``times`` by
        #: _place/_eject: row p holds placed op p's terms
        #: ``t_p + MinDist(p, ·)`` of Estart and ``t_p - MinDist(·, p)``
        #: of Lstart, an unplaced op's row the ``_UNPLACED`` sentinel of
        #: the side where it can never win.
        self._estart_rows = np.full((self.n, self.n), -_UNPLACED, dtype=np.int64)
        self._lstart_rows = np.full((self.n, self.n), _UNPLACED, dtype=np.int64)
        self._estart_rows[self.start_oid] = self.matrix[self.start_oid]
        self._lstart_rows[self.start_oid] = -self._matrix_t[self.start_oid]
        #: Additive placed-op penalty for vectorized operation choice:
        #: 0 while unplaced, a huge constant once placed, so a single
        #: argmin over (key + penalty) only ever selects unplaced ops.
        self.placed_penalty = np.zeros(self.n, dtype=np.int64)
        self.placed_penalty[self.start_oid] = PLACED_PENALTY
        self.budget = placement_budget(loop, budget_ratio)
        self.stats = SchedulerStats()

        self.estart = np.zeros(self.n, dtype=np.int64)
        self.lstart = np.zeros(self.n, dtype=np.int64)
        self.lstart_cap = 0
        self._bounds_dirty = True
        self._init_cap()
        self._refresh_bounds()

    # ------------------------------------------------------------------
    # Estart / Lstart bookkeeping (§4.1)
    # ------------------------------------------------------------------
    def _quantize_cap(self, estart_stop: int) -> int:
        """Lstart(Stop) policy: the critical path if there is no resource
        contention, else the critical path rounded up to a multiple of II
        (the extra slack lessens backtracking, §4.2)."""
        if self.tight_cap or not self.contention or estart_stop == 0:
            return estart_stop
        return math.ceil(estart_stop / self.ii) * self.ii

    def _init_cap(self) -> None:
        critical_path = int(self.matrix[self.start_oid, self.stop_oid])
        self.lstart_cap = self._quantize_cap(max(0, critical_path))

    def _recompute_bounds(self) -> None:
        """Full O(n*n) recomputation from the contribution rows (after
        ejections)."""
        with self.prof.span("bounds.recompute"):
            # Estart(x) = max over placed p of t_p + MinDist(p, x).
            self.estart = np.maximum.reduce(self._estart_rows, axis=0)
            # Lstart(x) = min(cap - MinDist(x, Stop), t_p - MinDist(x, p)).
            self.lstart = np.minimum.reduce(self._lstart_rows, axis=0)
            cap_bound = self.lstart_cap - self._matrix_t[self.stop_oid]
            np.minimum(self.lstart, cap_bound, out=self.lstart)
            self._bounds_dirty = False
            if self.trace is not None:
                self.trace.emit(tracing.BoundsRecompute(n_placed=len(self.times)))
        self.prof.count("bounds.recomputes")

    def _refresh_bounds(self) -> None:
        """Make bounds valid, growing Lstart(Stop) and ejecting Stop when
        Estart(Stop) is pushed beyond it (§4.2)."""
        while True:
            if self._bounds_dirty:
                self._recompute_bounds()
            estart_stop = int(self.estart[self.stop_oid])
            if self.stop_oid in self.times and estart_stop > self.times[self.stop_oid]:
                self._eject(self.stop_oid, cause="cap")
                continue
            if estart_stop > self.lstart_cap:
                old_cap = self.lstart_cap
                self.lstart_cap = self._quantize_cap(estart_stop)
                self._bounds_dirty = True
                if self.trace is not None:
                    self.trace.emit(
                        tracing.CapGrow(old_cap=old_cap, new_cap=self.lstart_cap)
                    )
                continue
            break

    # ------------------------------------------------------------------
    # Placement / ejection (§4.4)
    # ------------------------------------------------------------------
    def _eject(self, oid: int, cause: str = "force") -> None:
        op = self.loop.ops[oid]
        cycle = self.times.pop(oid)
        self.mrt.remove(op, cycle)
        self.unplaced.add(oid)
        self._estart_rows[oid] = -_UNPLACED
        self._lstart_rows[oid] = _UNPLACED
        self.placed_penalty[oid] = 0
        self.stats.ejections += 1
        self._bounds_dirty = True
        if self.trace is not None:
            self.trace.emit(tracing.Eject(oid=oid, cycle=cycle, cause=cause))
        if self._eject_counts is not None:
            self._eject_counts[oid] = self._eject_counts.get(oid, 0) + 1
        self.prof.count("framework.ejections")

    def _dependence_conflicts(self, oid: int, cycle: int) -> List[int]:
        """Placed ops whose times are inconsistent with ``oid @ cycle``.

        MinDist reflects the transitive closure, so this ejects the full
        set of (possibly indirect) violators, which the paper found
        reduces overall backtracking.  Placed p violates exactly when its
        Lstart term for ``oid`` lies below ``cycle`` or its Estart term
        above it, so this reads column ``oid`` of the contribution rows;
        the result is in oid order.  No path mask is needed: a no-path
        MinDist entry is below ``-2**39``, which puts its term more than
        ``2**39`` past the placed op's cycle on the side that never
        conflicts, as an unplaced op's sentinel always is.
        """
        violates = (self._lstart_rows[:, oid] < cycle) | (
            self._estart_rows[:, oid] > cycle
        )
        violates[oid] = violates[self.start_oid] = False
        return np.flatnonzero(violates).tolist()

    def _force_place(self, op: Operation) -> int:
        """Step 3: make room for ``op`` by ejecting its blockers."""
        self.stats.forced += 1
        self.prof.count("framework.force_places")
        cycle = max(int(self.estart[op.oid]), self.last_place.get(op.oid, -1) + 1)
        # brtop can never be ejected; search past any conflict with it.
        while True:
            blockers = self.mrt.conflicts(op, cycle)
            dep_blockers = self._dependence_conflicts(op.oid, cycle)
            if -1 in blockers:
                self._fail(f"{op!r} cannot fit at II={self.ii} at all")
            protected = self.brtop_oid is not None and (
                self.brtop_oid in blockers or self.brtop_oid in dep_blockers
            )
            if protected and op.oid != self.brtop_oid:
                cycle += 1
                continue
            ejected = sorted(set(blockers) | set(dep_blockers))
            for blocker in ejected:
                self._eject(blocker)
            if self.trace is not None:
                self.trace.emit(
                    tracing.ForcePlace(oid=op.oid, cycle=cycle, ejected=ejected)
                )
            return cycle

    def _place(self, op: Operation, cycle: int, forced: bool = False) -> None:
        self.mrt.place(op, cycle)
        self.times[op.oid] = cycle
        self.last_place[op.oid] = cycle
        self.unplaced.discard(op.oid)
        early = np.add(self.matrix[op.oid], cycle, out=self._estart_rows[op.oid])
        late = np.subtract(cycle, self._matrix_t[op.oid], out=self._lstart_rows[op.oid])
        self.placed_penalty[op.oid] = PLACED_PENALTY
        self.stats.placements += 1
        self.prof.count("framework.placements")
        if self.trace is not None:
            self.trace.emit(tracing.Place(oid=op.oid, cycle=cycle, forced=forced))
        if not self._bounds_dirty:
            # Incremental §4.1 update: fold in the new rows.
            np.maximum(self.estart, early, out=self.estart)
            np.minimum(self.lstart, late, out=self.lstart)

    def _fail(self, reason: str) -> None:
        """Emit the AttemptFail event and raise :class:`AttemptFailed`."""
        if self.trace is not None:
            self.trace.emit(tracing.AttemptFail(ii=self.ii, reason=reason))
        raise AttemptFailed(reason)

    # ------------------------------------------------------------------
    # Heuristic hooks
    # ------------------------------------------------------------------
    def choose_operation(self) -> Operation:
        raise NotImplementedError

    def choose_issue_cycle(self, op: Operation, lo: int, hi: int) -> Optional[int]:
        """Return a conflict-free cycle in [lo, hi], or None."""
        raise NotImplementedError

    def scan_window(self, op: Operation, lo: int, hi: int, early: bool) -> Optional[int]:
        """First conflict-free cycle in [lo, hi], or None (§5.2).

        At most II consecutive cycles need checking (the modulo
        constraint makes further cycles repeats); the caller already
        clamps the window accordingly.  The whole window is answered by
        one MRT scan (:meth:`~repro.machine.mrt.ModuloResourceTable.first_fit`);
        ``scanned`` is the linear-scan count (cycles up to and including
        the hit) the metrics always reported.
        """
        found, scanned = self.mrt.first_fit(op, lo, hi, early)
        if self.metrics is not None:
            self.metrics.histogram("scheduler.scan_window_length").record(scanned)
        self.prof.count("framework.scan_cycles", scanned)
        return found

    # ------------------------------------------------------------------
    # Central loop (§4.2)
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, int]:
        """Place every operation or raise :class:`AttemptFailed`."""
        if self.trace is not None:
            # Start's implicit placement, so a replayed Place/Eject
            # stream reconstructs the complete times dict.
            self.trace.emit(tracing.Place(oid=self.start_oid, cycle=0))
        try:
            while True:
                self._refresh_bounds()
                if not self.unplaced:
                    break
                if self.stats.placements >= self.budget:
                    self._fail(
                        f"budget of {self.budget} placements exhausted at II={self.ii}"
                    )
                op = self.choose_operation()
                lo = int(self.estart[op.oid])
                hi = min(int(self.lstart[op.oid]), lo + self.ii - 1)
                cycle = self.choose_issue_cycle(op, lo, hi) if lo <= hi else None
                if cycle is None:
                    self._place(op, self._force_place(op), forced=True)
                else:
                    self._place(op, cycle)
            return dict(self.times)
        finally:
            if self._eject_counts:
                histogram = self.metrics.histogram("scheduler.ejections_per_op")
                for count in self._eject_counts.values():
                    histogram.record(count)


def run_attempt(attempt) -> Optional[Schedule]:
    """Run one attempt; None if it failed.

    ``attempt`` is a :class:`SchedulingAttempt` (failure raises
    :class:`AttemptFailed`) or a :class:`~repro.core.warp.WarpScheduler`
    (failure returns None).
    """
    try:
        times = attempt.run()
    except AttemptFailed:
        return None
    if times is None:
        return None
    return Schedule(
        loop=attempt.loop,
        machine=attempt.machine,
        ii=attempt.ii,
        times=times,
        binding=attempt.binding,
    )
