"""The vectorized hot-path kernels are decision-identical to the plain
Python formulations they replaced.

``SlackAttempt.choose_operation`` packs (priority, Lstart, oid) into one
integer key and takes an argmin; ``_dependence_conflicts`` evaluates the
§4.4 violation test as one pass over the placed set.  Both must agree
with the straightforward scalar reference at *every* call of a real
scheduling run — a checked subclass asserts exactly that while whole
corpus loops schedule end to end, covering contention, ejection, cap
growth and II escalation states no hand-written fixture reaches.
"""

from repro.bounds import LoopAnalysis
from repro.bounds.mindist import is_path
from repro.core.framework import run_attempt
from repro.core.slack import SlackAttempt
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.workloads import paper_corpus

MACHINE = cydra5()


class CheckedSlackAttempt(SlackAttempt):
    """Asserts the vectorized kernels against scalar references."""

    def choose_operation(self):
        chosen = super().choose_operation()
        reference = min(
            (self.loop.ops[oid] for oid in self.unplaced),
            key=lambda op: (self.priority(op), int(self.lstart[op.oid]), op.oid),
        )
        assert chosen.oid == reference.oid, (
            f"choose_operation picked {chosen.oid}, "
            f"reference min picked {reference.oid}"
        )
        return chosen

    def _dependence_conflicts(self, oid, cycle):
        got = super()._dependence_conflicts(oid, cycle)
        expected = []
        for placed_oid, placed_time in self.times.items():
            if placed_oid in (oid, self.start_oid):
                continue
            forward = int(self.matrix[oid, placed_oid])
            backward = int(self.matrix[placed_oid, oid])
            if (is_path(forward) and placed_time < cycle + forward) or (
                is_path(backward) and cycle < placed_time + backward
            ):
                expected.append(placed_oid)
        assert got == expected, f"conflicts at oid={oid} cycle={cycle}"
        return got


def _schedule_checked(loop, ddg, **kwargs):
    analysis = LoopAnalysis.of(ddg)
    ii = analysis.mii
    for _ in range(15):
        attempt = CheckedSlackAttempt(analysis, ii, **kwargs)
        schedule = run_attempt(attempt)
        if schedule is not None:
            return schedule
        ii += max(int(0.04 * ii), 1)
    return None


def test_vectorized_kernels_match_reference_over_corpus():
    for program in paper_corpus(12, seed=1993):
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        assert _schedule_checked(loop, ddg) is not None, loop.name


def test_vectorized_kernels_match_reference_frozen_priority():
    for program in paper_corpus(6, seed=7):
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        schedule = _schedule_checked(loop, ddg, dynamic_priority=False)
        assert schedule is not None, loop.name
