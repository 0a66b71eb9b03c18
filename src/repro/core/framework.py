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

Bounds bookkeeping is vectorized with numpy on one int64 vector,
``bounds = [Estart | -Lstart]``: negating Lstart turns each of its
minima into a maximum, so both halves follow one rule.  Each placed op
keeps its terms of every op's Estart and -Lstart as one row of one
(n+1) × 2n contribution matrix, written once when it is placed; the
last row holds the Lstart(Stop) cap's terms.  A plain placement folds
its row into ``bounds`` with one ``np.maximum``, a recomputation after
ejections is one ``np.maximum.reduce`` over the rows, and a
dependence-conflict test reads two columns of the placed ops' rows.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.bounds.analysis import LoopAnalysis
from repro.bounds.mindist import MinDist
from repro.ir.loop import LoopBody
from repro.ir.operations import Operation
from repro.machine.mrt import ModuloResourceTable
from repro.core.schedule import Schedule, SchedulerStats
from repro.obs import trace as tracing
from repro.obs.observer import NULL_OBSERVER, Observer

#: ``-_UNPLACED`` is every entry of an unplaced op's contribution row and
#: of the cap row's Estart half.  A placed op's entries lie within
#: ``2**40`` of its cycle (``|MinDist| <= 2**40``), and every Estart is at
#: least 0 and every -Lstart above ``-2**40`` (Start, always placed at 0,
#: reaches every op; every op reaches Stop), so a sentinel never wins a
#: reduction or fails a conflict test.
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
    and its contribution rows, ``bounds``, the MRT).

    ``bounds`` is ``[Estart | -Lstart]``; ``estart`` and ``neg_lstart``
    are views of its halves, and :attr:`lstart` is a derived copy for
    readers off the hot path.

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
        #: given; spans go to ``prof`` unconditionally (only an enabled
        #: profiler records them; see obs.observer).
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

        #: Profiler counters and scan metrics are recorded only when
        #: something keeps them; read once here for the hot path.
        self._counting = self.prof.enabled
        self._scan_stats = self._counting or self.metrics is not None

        self.mrt = ModuloResourceTable(self.machine, ii, self.binding)
        self.times: Dict[int, int] = {self.start_oid: 0}
        self.last_place: Dict[int, int] = {}
        self.unplaced: Set[int] = {op.oid for op in loop.ops} - {self.start_oid}
        n = self.n
        #: Contribution rows (§4.1), kept in lockstep with ``times`` by
        #: the placement step and _eject: row p holds placed op p's terms
        #: ``[t_p + MinDist(p, ·) | MinDist(·, p) - t_p]`` of Estart and
        #: -Lstart, an unplaced op's row ``-_UNPLACED`` throughout; row n
        #: holds ``[-_UNPLACED ... | MinDist(·, Stop) - lstart_cap]``
        #: (see :meth:`set_lstart_cap`).
        self.rows = np.full((n + 1, 2 * n), -_UNPLACED, dtype=np.int64)
        self.rows[self.start_oid, :n] = self.matrix[self.start_oid]
        self.rows[self.start_oid, n:] = self._matrix_t[self.start_oid]
        #: The placed ops' rows, which alone can conflict with a placement.
        self._placed_rows = self.rows[:n]
        #: Additive placed-op penalty for vectorized operation choice:
        #: 0 while unplaced, a huge constant once placed, so a single
        #: argmax over (key - penalty) only ever selects unplaced ops.
        self.placed_penalty = np.zeros(n, dtype=np.int64)
        self.placed_penalty[self.start_oid] = PLACED_PENALTY
        self.budget = placement_budget(loop, budget_ratio)
        self.stats = SchedulerStats()

        #: ``[Estart | -Lstart]``: the maximum of the rows while clean.
        self.bounds = np.zeros(2 * n, dtype=np.int64)
        self.estart = self.bounds[:n]
        self.neg_lstart = self.bounds[n:]
        self._init_cap()
        self._refresh_bounds()

    @property
    def lstart(self) -> np.ndarray:
        """Lstart of every op: a fresh copy, ``-neg_lstart``."""
        return -self.neg_lstart

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
        self.set_lstart_cap(self._quantize_cap(max(0, critical_path)))

    def set_lstart_cap(self, cap: int) -> None:
        """Make ``cap`` Lstart(Stop): rewrite the cap row's -Lstart terms
        ``MinDist(·, Stop) - cap`` and mark the bounds for recomputation."""
        self.lstart_cap = cap
        np.subtract(self._matrix_t[self.stop_oid], cap, out=self.rows[self.n, self.n :])
        self._bounds_dirty = True

    def _recompute_bounds(self) -> None:
        """Full O(n*n) recomputation from the contribution rows (after
        ejections or a cap change): Estart(x) is the maximum over placed
        p of ``t_p + MinDist(p, x)``, and -Lstart(x) the maximum of
        ``MinDist(x, Stop) - cap`` and, over placed p, ``MinDist(x, p) - t_p``."""
        with self.prof.span("bounds.recompute"):
            np.maximum.reduce(self.rows, axis=0, out=self.bounds)
            self._bounds_dirty = False
            if self.trace is not None:
                self.trace.emit(tracing.BoundsRecompute(n_placed=len(self.times)))
        if self._counting:
            self.prof.count("bounds.recomputes")

    def _refresh_bounds(self) -> None:
        """Make bounds valid, growing Lstart(Stop) and ejecting Stop when
        Estart(Stop) is pushed beyond it (§4.2)."""
        while True:
            if self._bounds_dirty:
                self._recompute_bounds()
            estart_stop = self.bounds.item(self.stop_oid)
            if self.stop_oid in self.times and estart_stop > self.times[self.stop_oid]:
                self._eject([self.stop_oid], cause="cap")
                continue
            if estart_stop > self.lstart_cap:
                old_cap = self.lstart_cap
                self.set_lstart_cap(self._quantize_cap(estart_stop))
                if self.trace is not None:
                    self.trace.emit(
                        tracing.CapGrow(old_cap=old_cap, new_cap=self.lstart_cap)
                    )
                continue
            break

    # ------------------------------------------------------------------
    # Placement / ejection (§4.4)
    # ------------------------------------------------------------------
    def _eject(self, oids: List[int], cause: str = "force") -> None:
        """Unplace ``oids`` (placed ops, in this order).

        Each row is reset on its own: at one to ten ops, the size of
        nearly every ejection batch, a scalar row assignment per op
        costs less than one fancy-indexed assignment of them all.
        """
        ops, times, mrt, unplaced = self.loop.ops, self.times, self.mrt, self.unplaced
        rows, penalty, trace, eject_counts = (
            self.rows, self.placed_penalty, self.trace, self._eject_counts
        )
        for oid in oids:
            cycle = times.pop(oid)
            mrt.remove(ops[oid], cycle)
            unplaced.add(oid)
            rows[oid] = -_UNPLACED
            penalty[oid] = 0
            if trace is not None:
                trace.emit(tracing.Eject(oid=oid, cycle=cycle, cause=cause))
            if eject_counts is not None:
                eject_counts[oid] = eject_counts.get(oid, 0) + 1
        self.stats.ejections += len(oids)
        self._bounds_dirty = True
        if self._counting:
            self.prof.count("framework.ejections", len(oids))

    def _dependence_conflicts(self, oid: int, cycle: int) -> List[int]:
        """Placed ops whose times are inconsistent with ``oid @ cycle``.

        MinDist reflects the transitive closure, so this ejects the full
        set of (possibly indirect) violators, which the paper found
        reduces overall backtracking.  Placed p violates exactly when its
        Estart term for ``oid`` lies above ``cycle`` or its -Lstart term
        above ``-cycle``, so this reads two columns of the placed ops'
        rows (never the cap row); the result is in oid order.  No path
        mask is needed: a no-path MinDist entry is below ``-2**39``,
        which puts its term more than ``2**39`` below the placed op's
        cycle (or its negation), as an unplaced op's sentinel always is.
        """
        rows = self._placed_rows
        violates = (rows[:, oid] > cycle) | (rows[:, self.n + oid] > -cycle)
        violates[oid] = violates[self.start_oid] = False
        return violates.nonzero()[0].tolist()

    def _force_place(self, op: Operation) -> int:
        """Step 3: make room for ``op`` by ejecting its blockers."""
        self.stats.forced += 1
        if self._counting:
            self.prof.count("framework.force_places")
        cycle = max(self.bounds.item(op.oid), self.last_place.get(op.oid, -1) + 1)
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
            if ejected:
                self._eject(ejected)
            if self.trace is not None:
                self.trace.emit(
                    tracing.ForcePlace(oid=op.oid, cycle=cycle, ejected=ejected)
                )
            return cycle

    def _placer(self) -> Callable[..., None]:
        """The placement step, ``place(op, cycle, forced=False)``, with the
        attempt's tables bound once: it reserves the MRT, writes op's
        contribution row and, while the bounds are clean, folds that row
        into them (the incremental §4.1 update)."""
        mrt_place, times, last_place = self.mrt.place, self.times, self.last_place
        unplaced, rows, penalty = self.unplaced, self.rows, self.placed_penalty
        matrix, matrix_t, bounds = self.matrix, self._matrix_t, self.bounds
        stats, n, trace = self.stats, self.n, self.trace
        count = self.prof.count if self._counting else None
        add, subtract, maximum = np.add, np.subtract, np.maximum

        def place(op: Operation, cycle: int, forced: bool = False) -> None:
            oid = op.oid
            mrt_place(op, cycle)
            times[oid] = last_place[oid] = cycle
            unplaced.discard(oid)
            row = rows[oid]
            add(matrix[oid], cycle, row[:n])
            subtract(matrix_t[oid], cycle, row[n:])
            penalty[oid] = PLACED_PENALTY
            stats.placements += 1
            if count is not None:
                count("framework.placements")
            if trace is not None:
                trace.emit(tracing.Place(oid=oid, cycle=cycle, forced=forced))
            if not self._bounds_dirty:
                maximum(bounds, row, out=bounds)

        return place

    def _place(self, op: Operation, cycle: int, forced: bool = False) -> None:
        """Place ``op`` at ``cycle`` outside the loop (tests)."""
        self._placer()(op, cycle, forced)

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
        if self._scan_stats:
            self._record_scan(scanned)
        return found

    def _record_scan(self, scanned: int) -> None:
        """Report one window scan of ``scanned`` cycles."""
        if self.metrics is not None:
            self.metrics.histogram("scheduler.scan_window_length").record(scanned)
        self.prof.count("framework.scan_cycles", scanned)

    # ------------------------------------------------------------------
    # Central loop (§4.2)
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, int]:
        """Place every operation or raise :class:`AttemptFailed`.

        Bounds are made valid only when something can have broken them:
        an ejection or cap change (dirty), a placed Stop that Estart may
        have passed, or an Estart(Stop) past the cap.
        """
        if self.trace is not None:
            # Start's implicit placement, so a replayed Place/Eject
            # stream reconstructs the complete times dict.
            self.trace.emit(tracing.Place(oid=self.start_oid, cycle=0))
        bounds, times, unplaced, stats = self.bounds, self.times, self.unplaced, self.stats
        stop, n, ii, budget = self.stop_oid, self.n, self.ii, self.budget
        choose_operation, choose_issue_cycle = self.choose_operation, self.choose_issue_cycle
        place, refresh = self._placer(), self._refresh_bounds
        try:
            while True:
                if self._bounds_dirty or stop in times or bounds.item(stop) > self.lstart_cap:
                    refresh()
                if not unplaced:
                    break
                if stats.placements >= budget:
                    self._fail(f"budget of {budget} placements exhausted at II={ii}")
                op = choose_operation()
                oid = op.oid
                lo = bounds.item(oid)
                hi = min(-bounds.item(n + oid), lo + ii - 1)
                cycle = choose_issue_cycle(op, lo, hi) if lo <= hi else None
                if cycle is None:
                    place(op, self._force_place(op), True)
                else:
                    place(op, cycle)
            return dict(times)
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
