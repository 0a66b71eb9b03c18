"""Baseline schedulers the paper compares against (§8, Table 4).

* :class:`CydromeAttempt` — a rebuild of Cydrome's production scheduler
  from its published description: the same operation-driven backtracking
  framework, but a *static* priority favoring minimal initial slack, all
  operations on recurrence circuits placed before any others, and every
  operation placed as early as possible.  Because the priority is
  static, the scheduler cannot detect when a recurrence circuit becomes
  "fixed" by a placement, which is why it backtracks several times more
  and occasionally fails to pipeline a loop.

* :class:`UnidirectionalAttempt` — the full dynamic-priority slack
  framework with the bidirectional lifetime heuristic disabled (always
  scan early-to-late).  This is the §7 ablation: with it, register
  pressure lands close to Cydrome's, demonstrating that the §5.2
  heuristics are what deliver the pressure reductions.
"""

from __future__ import annotations

from typing import Optional

from repro.bounds.analysis import LoopAnalysis
from repro.ir.operations import Operation
from repro.core.framework import SchedulingAttempt
from repro.core.slack import SlackAttempt


class CydromeAttempt(SchedulingAttempt):
    """Static-priority, recurrence-first, earliest-placement baseline."""

    def __init__(self, analysis: LoopAnalysis, ii: int, **kwargs):
        super().__init__(analysis, ii, **kwargs)
        self.recurrence = analysis.recurrence_ops
        #: Initial slack, frozen before any placement (the static priority).
        estart, lstart = self.estart.tolist(), self.lstart.tolist()
        self.initial_slack = {op.oid: lstart[op.oid] - estart[op.oid] for op in self.loop.ops}
        self.initial_lstart = {op.oid: lstart[op.oid] for op in self.loop.ops}

    def choose_operation(self) -> Operation:
        best_oid = min(
            self.unplaced,
            key=lambda oid: (
                oid not in self.recurrence,  # all recurrence ops first
                self.initial_slack[oid],
                self.initial_lstart[oid],
                oid,
            ),
        )
        return self.loop.ops[best_oid]

    def choose_issue_cycle(self, op: Operation, lo: int, hi: int) -> Optional[int]:
        return self.scan_window(op, lo, hi, early=True)


class UnidirectionalAttempt(SlackAttempt):
    """Slack scheduling without the bidirectional heuristic (ablation)."""

    def __init__(self, *args, **kwargs):
        kwargs["bidirectional"] = False
        super().__init__(*args, **kwargs)


class HeightAttempt(SchedulingAttempt):
    """An IMS-style baseline: static height priority, earliest placement.

    The classic iterative-modulo-scheduling recipe that followed the
    paper: operations ordered by *height* (longest latency path to
    Stop, a static quantity), each placed at its earliest conflict-free
    cycle, with the same forced-placement/eviction backtracking as the
    other operation-driven schedulers.  Unlike slack scheduling it
    neither tracks converging windows (dynamic priority) nor considers
    lifetimes (bidirectional placement), so it serves as a second
    related-work reference point alongside the Cydrome baseline.
    """

    def __init__(self, analysis: LoopAnalysis, ii: int, **kwargs):
        super().__init__(analysis, ii, **kwargs)
        stop = self.loop.stop.oid
        self.height = {}
        for op in self.loop.ops:
            distance = self.mindist.dist(op.oid, stop)
            self.height[op.oid] = distance if distance is not None else 0

    def choose_operation(self) -> Operation:
        estart = self.bounds.item
        best_oid = min(
            self.unplaced,
            key=lambda oid: (-self.height[oid], estart(oid), oid),
        )
        return self.loop.ops[best_oid]

    def choose_issue_cycle(self, op: Operation, lo: int, hi: int) -> Optional[int]:
        return self.scan_window(op, lo, hi, early=True)
