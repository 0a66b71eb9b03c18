"""The vectorized hot-path kernels are decision-identical to the plain
Python formulations they replaced.

``SlackAttempt.choose_operation`` packs (priority, Lstart, oid) into one
integer key and takes an argmax of its negation.  The framework keeps
``bounds = [Estart | -Lstart]`` and each placed op's terms of both as
one row of one contribution matrix (``[t_p + MinDist(p, ·) |
MinDist(·, p) - t_p]``, a sentinel while unplaced), whose last row holds
the Lstart(Stop) cap's terms: ``_recompute_bounds`` reduces over those
rows, a placement folds its row in, and ``_dependence_conflicts`` reads
two columns.  All of these must agree with the straightforward scalar
reference at *every* call of a real scheduling run, and the rows must
hold exactly those terms after every placement, ejection and cap
change — checked subclasses of all four framework schedulers (slack,
Cydrome, unidirectional, height) assert exactly that while whole corpus
loops schedule end to end, on every registry target, covering
contention, ejection, cap growth and II escalation states no
hand-written fixture reaches.
"""

import pytest

from repro.bounds import LoopAnalysis
from repro.bounds.mindist import is_path
from repro.core import acyclic
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.framework import AttemptFailed, run_attempt
from repro.core.slack import SlackAttempt
from repro.frontend import compile_loop, parse_loop
from repro.ir import build_ddg
from repro.machine import build_machine, cydra5, machine_names
from repro.workloads import paper_corpus

MACHINE = cydra5()

#: The framework's "unconstrained" Lstart.
UNCONSTRAINED = 2**40

#: Every entry of an unplaced op's contribution row, and of the cap
#: row's Estart half, is ``-UNPLACED``.
UNPLACED = 2**42


def scalar_bounds(attempt):
    """Estart and Lstart of every op, recomputed one placed op at a time
    from ``times``, ``lstart_cap`` and the MinDist closure."""
    matrix = attempt.matrix.tolist()
    cap, stop = attempt.lstart_cap, attempt.stop_oid
    estart, lstart = [], []
    for x in range(attempt.n):
        early, late = 0, UNCONSTRAINED
        if is_path(matrix[x][stop]):
            late = min(late, cap - matrix[x][stop])
        for placed, cycle in attempt.times.items():
            if is_path(matrix[placed][x]):
                early = max(early, cycle + matrix[placed][x])
            if is_path(matrix[x][placed]):
                late = min(late, cycle - matrix[x][placed])
        estart.append(early)
        lstart.append(late)
    return estart, lstart


def check_rows(attempt):
    """Placed op p's row is ``t_p + MinDist(p, x)`` then
    ``MinDist(x, p) - t_p`` for every x, an unplaced op's the sentinel,
    and the cap row the sentinel then ``MinDist(x, Stop) - lstart_cap``."""
    matrix = attempt.matrix.tolist()
    rows = attempt.rows.tolist()
    n, stop = attempt.n, attempt.stop_oid
    assert len(rows) == n + 1
    ops = range(n)
    for p in ops:
        if p in attempt.times:
            cycle = attempt.times[p]
            expected = [cycle + matrix[p][x] for x in ops] + [matrix[x][p] - cycle for x in ops]
        else:
            expected = [-UNPLACED] * (2 * n)
        assert rows[p] == expected, f"row of op {p}"
    cap_row = [-UNPLACED] * n + [matrix[x][stop] - attempt.lstart_cap for x in ops]
    assert rows[n] == cap_row, "cap row"


class CheckedKernels:
    """Asserts the framework's kernels against scalar references: the
    rows after construction, every ejection and cap change, at every
    step (so after every placement but the last) and after the run; the
    fused bounds after every refresh and at every step; the conflicts of
    every forced placement."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_rows(self)

    def run(self):
        times = super().run()
        check_rows(self)
        return times

    def _eject(self, oids, cause="force"):
        super()._eject(oids, cause=cause)
        check_rows(self)

    def set_lstart_cap(self, cap):
        super().set_lstart_cap(cap)
        check_rows(self)

    def check_bounds(self):
        estart, lstart = scalar_bounds(self)
        assert self.bounds.tolist() == estart + [-late for late in lstart], (
            "bounds differ from the scalar reference"
        )
        assert self.estart.tolist() == estart and self.lstart.tolist() == lstart

    def _refresh_bounds(self):
        super()._refresh_bounds()
        self.check_bounds()

    def choose_operation(self):
        # The loop refreshes only when something may have broken the
        # bounds: every step must find them clean and exact.
        assert not self._bounds_dirty, "a step began with dirty bounds"
        check_rows(self)
        self.check_bounds()
        return super().choose_operation()

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
        # The caller sorts the union with the resource blockers, so
        # order is not behaviour.
        assert sorted(got) == sorted(expected), f"conflicts at oid={oid} cycle={cycle}"
        return got


class CheckedChoice:
    """Asserts slack's packed-key operation choice against a scalar min."""

    def choose_operation(self):
        # The packed key is lexicographic only while every unplaced
        # Lstart lies in [0, lstart_cap].
        lstart = self.lstart
        outside = sorted(
            oid for oid in self.unplaced if not 0 <= lstart[oid] <= self.lstart_cap
        )
        assert not outside, f"unplaced Lstart outside [0, {self.lstart_cap}]: {outside}"
        chosen = super().choose_operation()
        reference = min(
            (self.loop.ops[oid] for oid in self.unplaced),
            key=lambda op: (self.priority(op), int(lstart[op.oid]), op.oid),
        )
        assert chosen.oid == reference.oid, (
            f"choose_operation picked {chosen.oid}, "
            f"reference min picked {reference.oid}"
        )
        return chosen


class CheckedSlackAttempt(CheckedChoice, CheckedKernels, SlackAttempt):
    pass


class CheckedUnidirectionalAttempt(CheckedChoice, CheckedKernels, UnidirectionalAttempt):
    pass


class CheckedCydromeAttempt(CheckedKernels, CydromeAttempt):
    pass


class CheckedHeightAttempt(CheckedKernels, HeightAttempt):
    pass


def _schedule_checked(attempt_cls, ddg, **kwargs):
    analysis = LoopAnalysis.of(ddg)
    ii = analysis.mii
    for _ in range(15):
        attempt = attempt_cls(analysis, ii, **kwargs)
        schedule = run_attempt(attempt)
        if schedule is not None:
            return schedule
        ii += max(int(0.04 * ii), 1)
    return None


def test_vectorized_kernels_match_reference_over_corpus():
    for program in paper_corpus(12, seed=1993):
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        assert _schedule_checked(CheckedSlackAttempt, ddg) is not None, loop.name


def test_vectorized_kernels_match_reference_frozen_priority():
    for program in paper_corpus(6, seed=7):
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        schedule = _schedule_checked(CheckedSlackAttempt, ddg, dynamic_priority=False)
        assert schedule is not None, loop.name


#: Six named kernels and twelve generated loops of the paper corpus.
_CORPUS = paper_corpus(60, seed=1993)
FEW_LOOPS = _CORPUS[:6] + _CORPUS[48:]


@pytest.mark.parametrize("dynamic_priority", [True, False], ids=["dynamic", "frozen"])
@pytest.mark.parametrize("target", machine_names())
def test_vectorized_kernels_match_reference_on_every_target(target, dynamic_priority):
    machine = build_machine(target)
    for program in FEW_LOOPS:
        loop = compile_loop(program)
        ddg = build_ddg(loop, machine)
        schedule = _schedule_checked(
            CheckedSlackAttempt, ddg, dynamic_priority=dynamic_priority
        )
        assert schedule is not None, f"{loop.name} on {target}"


#: The other three framework schedulers (slack is checked above).
CHECKED_BASELINES = {
    "cydrome": CheckedCydromeAttempt,
    "unidirectional": CheckedUnidirectionalAttempt,
    "height": CheckedHeightAttempt,
}


@pytest.mark.parametrize("algorithm", list(CHECKED_BASELINES))
@pytest.mark.parametrize("target", machine_names())
def test_every_framework_scheduler_matches_reference_on_every_target(target, algorithm):
    machine = build_machine(target)
    for program in FEW_LOOPS:
        loop = compile_loop(program)
        ddg = build_ddg(loop, machine)
        schedule = _schedule_checked(CHECKED_BASELINES[algorithm], ddg)
        assert schedule is not None, f"{loop.name} on {target}"


DIVIDE = """\
loop divide
array x 60
array a 60
array b 60
do i = 1, 40
    x(i) = a(i) / b(i)
end do
"""


def test_packed_key_separates_a_quarter_unit_from_a_full_lstart_range():
    """Two ops whose keys would tie under a weight of ``lstart_cap``.

    The store (oid 7) has priority p and Lstart = cap; the divide (oid
    5, a divider on the critical unit: a quarter of its slack counts)
    has priority p + 1/4 and Lstart 0.  The scalar min takes the store;
    with the weight one too small the two keys tie and argmax's
    first-maximum rule would take the divide.
    """
    loop = compile_loop(parse_loop(DIVIDE))
    ddg = build_ddg(loop, MACHINE)
    analysis = LoopAnalysis.of(ddg)
    attempt = SlackAttempt(analysis, analysis.mii)
    cap = attempt.lstart_cap
    divide = next(op for op in loop.ops if op.uses_divider)
    store = next(op for op in loop.ops if op.is_store)
    assert attempt._scale4[divide.oid] == 1 and attempt._scale4[store.oid] == 4
    assert divide.oid < store.oid and cap > 0
    # Everything else: slack cap, no competition.
    attempt.estart[:] = 0
    attempt.neg_lstart[:] = -cap
    # Store: slack -1, priority -1; divide: slack -3, priority -3/4.
    attempt.estart[store.oid], attempt.neg_lstart[store.oid] = cap + 1, -cap
    attempt.estart[divide.oid], attempt.neg_lstart[divide.oid] = 3, 0
    assert attempt.priority(divide) == attempt.priority(store) + 0.25

    lstart = attempt.lstart
    reference = min(
        (loop.ops[oid] for oid in attempt.unplaced),
        key=lambda op: (attempt.priority(op), int(lstart[op.oid]), op.oid),
    )
    assert reference is store
    assert attempt.choose_operation() is reference


def test_a_cap_set_from_outside_the_loop_reaches_lstart(monkeypatch):
    """The straight-line driver relaxes its target makespan after a
    failed attempt and sets it as Lstart(Stop) before the next attempt
    runs; only the cap row carries it to every Lstart.  The first
    attempt here fails on purpose, so the second starts from a target
    above its own critical-path cap."""
    caps = []

    class FailsOnce(CheckedSlackAttempt):
        def run(self):
            caps.append(self.lstart_cap)
            if len(caps) == 1:
                raise AttemptFailed("fail the first attempt")
            return super().run()

        def choose_operation(self):
            # check_bounds (CheckedKernels) compares every Lstart with
            # the scalar reference under the current cap.
            assert self.lstart[self.stop_oid] == self.lstart_cap
            return super().choose_operation()

    monkeypatch.setattr(acyclic, "SlackAttempt", FailsOnce)
    loop = compile_loop(paper_corpus(1, seed=1993)[0])
    block = acyclic.schedule_slack(loop, MACHINE)
    first, second = caps
    assert second == int(first * 1.15) + 4
    assert block.length <= second
