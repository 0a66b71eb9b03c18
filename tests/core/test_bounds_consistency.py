"""Property: incremental Estart/Lstart updates match full recomputation.

The framework maintains ``bounds = [Estart | -Lstart]`` incrementally
after plain placements (§4.1's update rule) and recomputes it from
scratch after ejections.  Both paths must agree — this is the invariant
the whole scheduler's correctness rests on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import LoopAnalysis
from repro.core import SlackAttempt
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.workloads import LoopGenerator

MACHINE = cydra5()


def _fresh_attempt(seed, klass):
    program = LoopGenerator(seed).generate(f"bc{seed}", klass)
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    from repro.bounds import recmii, resmii

    ii = max(recmii(ddg), resmii(loop, MACHINE))
    return SlackAttempt(LoopAnalysis.of(ddg), ii)


@given(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from(["neither", "recurrence", "conditional"]),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_incremental_bounds_equal_full_recompute(seed, klass, steps):
    attempt = _fresh_attempt(seed, klass)
    # Drive the scheduler a few central-loop steps (placements only).
    for _ in range(min(steps, len(attempt.unplaced))):
        attempt._refresh_bounds()
        if not attempt.unplaced:
            break
        op = attempt.choose_operation()
        lo = int(attempt.estart[op.oid])
        hi = min(-int(attempt.neg_lstart[op.oid]), lo + attempt.ii - 1)
        cycle = attempt.choose_issue_cycle(op, lo, hi) if lo <= hi else None
        if cycle is None:
            cycle = attempt._force_place(op)
        attempt._place(op, cycle)
    # Snapshot the incrementally-maintained bounds, then force a full
    # recompute and compare.
    attempt._refresh_bounds()
    incremental = attempt.bounds.copy()
    attempt._bounds_dirty = True
    attempt._refresh_bounds()
    assert np.array_equal(incremental, attempt.bounds)


@given(st.integers(min_value=0, max_value=1_000))
@settings(max_examples=15, deadline=None)
def test_bounds_bracket_final_schedule(seed):
    """At every step, placed ops sit inside their own bounds."""
    attempt = _fresh_attempt(seed, "neither")
    times = attempt.run()
    attempt._bounds_dirty = True
    attempt._refresh_bounds()
    estart, lstart = attempt.estart, attempt.lstart
    for oid, cycle in times.items():
        assert estart[oid] <= cycle <= lstart[oid]
