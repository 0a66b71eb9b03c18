"""The bidirectional slack scheduler — the paper's contribution (§4.3, §5).

Operation choice (§4.3): dynamic priority = current slack
(``Lstart - Estart``), halved for operations using a critical resource
(one kept busy >= 0.90*II by each iteration) and halved again for
divider operations, whose non-pipelined reservation patterns leave few
issue slots.  Ties break toward the smallest Lstart (a top-down bias
that interacts well with the backtracking policy).

Issue-cycle choice (§5.2): a *bidirectional* decision.  The scheduler
counts the operation's stretchable input and output lifetimes and scans
its window early-to-late or late-to-early accordingly:

* no stretchable inputs or outputs: place early (minimizes schedule
  length — e.g. an accumulator read only after the loop);
* more stretchable inputs than outputs: place early (placing late would
  stretch each input's lifetime);
* fewer: place late (placing early would stretch its output);
* tie: place near whichever of its immediate predecessors/successors
  has the larger fraction already placed (they are less likely to be
  ejected); on a further tie, place early iff no neighbor is placed.

An input lifetime ``v`` (defined by ``d``, used by this op ``u`` at
distance ``omega``) is *not* stretchable when
``Estart(d) + MinLT(v) >= omega*II + Lstart(u)``: even the latest legal
placement of ``u`` cannot extend ``v`` past its lower-bound lifetime.
Loop invariants (GPR-resident), duplicate inputs and self-recurrences
are ignored throughout, as are ICR predicates (this heuristic minimizes
RR pressure).

Both hooks read the framework's fused vector ``bounds = [Estart |
-Lstart]`` as it is: the priority key is built negated and maximized,
and the stretch test reads Lstart as ``-bounds[n + oid]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bounds.analysis import LoopAnalysis
from repro.ir.operations import Operation
from repro.core.framework import SchedulingAttempt


class SlackAttempt(SchedulingAttempt):
    """One fixed-II attempt of the bidirectional slack scheduler."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        ii: int,
        bidirectional: bool = True,
        critical_threshold: float = 0.90,
        dynamic_priority: bool = True,
        **kwargs,
    ):
        super().__init__(analysis, ii, **kwargs)
        loop = self.loop
        self.bidirectional = bidirectional
        #: §8 ablation: with dynamic_priority off, the operation choice
        #: freezes each op's *initial* slack (as Cydrome's scheduler
        #: did), so the scheduler cannot detect a recurrence circuit
        #: becoming "fixed" by a placement.
        self.dynamic_priority = dynamic_priority
        #: Critical ops are marked just before attempting each new II.
        self.critical_ops = analysis.critical_ops(ii, critical_threshold)
        #: §4.3 priority scale per op in quarter units (4 = full slack,
        #: 2 = halved for critical-resource ops, 1 = halved again for
        #: divider ops; both only under contention).  Integer quarters
        #: make the scaled priority exact, so the vectorized comparison
        #: is bit-identical to the scalar successive-halving formula.
        self._scale4 = np.full(self.n, 4, dtype=np.int64)
        if self.contention:
            for oid in self.critical_ops:
                self._scale4[oid] //= 2
            for op in loop.ops:
                if op.uses_divider:
                    self._scale4[op.oid] //= 2
        #: Frozen initial-priority vector (quarter units) for the
        #: ablation, snapshotted for *every* op right here — after
        #: __init__'s _refresh_bounds(), before any placement can
        #: tighten a bound.  (It used to be captured lazily at each
        #: op's first choose_operation visit, so a placement could leak
        #: into a later op's "initial" slack.)
        self._initial_priority4: Optional[np.ndarray] = None
        if not self.dynamic_priority:
            # Slack is Lstart - Estart = -(-Lstart + Estart).
            self._initial_priority4 = -(self.neg_lstart + self.estart) * self._scale4
        #: Reusable scratch vector for choose_operation's composite key.
        self._key_buf = np.empty(self.n, dtype=np.int64)
        #: choose_operation's priority multiplier times its Lstart
        #: weight, rebuilt whenever ``lstart_cap`` differs from the cap
        #: it was built for.
        self._weighted: Optional[np.ndarray] = None
        self._weighted_cap: Optional[int] = None
        #: The §5.2 per-op stretch tables derived from MinLT (§5.1),
        #: shared read-only through the analysis.
        with self.prof.span("slack.minlt"):
            self._input_stretch, self._output_stretch = analysis.stretch_tables(ii)

    # ------------------------------------------------------------------
    # §4.3: dynamic priority
    # ------------------------------------------------------------------
    def priority(self, op: Operation) -> float:
        """Estimated number of issue slots available to ``op``."""
        if self._initial_priority4 is not None:
            return float(int(self._initial_priority4[op.oid])) / 4.0
        return self._current_slack(op)

    def _current_slack(self, op: Operation) -> float:
        slack = float(-self.bounds.item(self.n + op.oid) - self.bounds.item(op.oid))
        if self.contention:
            if op.oid in self.critical_ops:
                slack /= 2.0
            if op.uses_divider:
                slack /= 2.0
        return slack

    def choose_operation(self) -> Operation:
        """Min over unplaced ops of (priority, Lstart, oid), vectorized.

        One argmax over an exact integer composite key, built in-place
        in a scratch buffer.  Priorities live in quarter units (see
        ``_scale4``), so equal float priorities are equal integers.  The
        Lstart weight ``lstart_cap + 1`` bounds every Lstart (each op
        reaches Stop through MinDist >= 0; incremental updates only lower
        Lstart; the cap grows only with a recomputation following), so
        while every unplaced Lstart is >= 0 the packed key
        ``k = priority4 * (lstart_cap + 1) + Lstart`` is lexicographic
        and far from int64 overflow.  The buffer holds ``-k - penalty``
        from the fused vector's -Lstart half: ``argmax(-k)`` picks the
        same first index as ``argmin(k)``, so its first-maximum rule is
        exactly the ascending-oid tiebreak, and the subtracted placed
        penalty (framework) masks placed ops.
        """
        if self._counting:
            self.prof.count("slack.choose_operation")
        if self._weighted_cap != self.lstart_cap:
            self._weighted_cap = self.lstart_cap
            frozen = self._initial_priority4
            scale = self._scale4 if frozen is None else frozen
            self._weighted = scale * (self.lstart_cap + 1)
        neg_lstart = self.neg_lstart
        buf = self._key_buf
        if self._initial_priority4 is not None:
            np.subtract(neg_lstart, self._weighted, out=buf)
        else:
            # -k = (-Lstart + Estart) * weight - Lstart.
            np.add(neg_lstart, self.estart, out=buf)
            buf *= self._weighted
            buf += neg_lstart
        buf -= self.placed_penalty
        return self.loop.ops[int(buf.argmax())]

    # ------------------------------------------------------------------
    # §5.2: bidirectional issue-cycle choice
    # ------------------------------------------------------------------
    def _stretchable_inputs(self, op: Operation) -> int:
        """Distinct input values a placement of ``op`` could stretch: an
        input ``v`` (defined by ``d``) is pinned when
        ``Estart(d) + MinLT(v) >= omega*II + Lstart(op)``."""
        entries = self._input_stretch[op.oid]
        if not entries:
            return 0
        bound = self.bounds.item
        limit = -bound(self.n + op.oid)
        return len([src for src, slack_const in entries if bound(src) + slack_const < limit])

    def _stretchable_outputs(self, op: Operation) -> int:
        return self._output_stretch[op.oid]

    def prefers_early(self, op: Operation) -> bool:
        """The §5.2 decision: True to scan Estart->Lstart."""
        inputs = self._stretchable_inputs(op)
        outputs = self._stretchable_outputs(op)
        if inputs == 0 and outputs == 0:
            return True
        if inputs != outputs:
            return inputs > outputs
        # Tie: place near the group less likely to be ejected.
        preds, succs = self.analysis.neighbors(op)
        pred_frac = _placed_fraction(preds, self.times)
        succ_frac = _placed_fraction(succs, self.times)
        if pred_frac != succ_frac:
            return pred_frac > succ_frac
        # Equal fractions are both 0 exactly when no neighbor is placed.
        return pred_frac == 0

    def choose_issue_cycle(self, op: Operation, lo: int, hi: int) -> Optional[int]:
        early = self.prefers_early(op) if self.bidirectional else True
        found, scanned = self.mrt.first_fit(op, lo, hi, early)
        if self._scan_stats:
            self._record_scan(scanned)
        return found


def _placed_fraction(oids, times) -> float:
    if not oids:
        return 0.0
    return len([oid for oid in oids if oid in times]) / len(oids)
