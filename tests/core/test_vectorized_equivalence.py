"""The vectorized hot-path kernels are decision-identical to the plain
Python formulations they replaced.

``SlackAttempt.choose_operation`` packs (priority, Lstart, oid) into one
integer key and takes an argmin.  The framework keeps each placed op's
Estart and Lstart terms as one row of two contribution matrices
(``t_p + MinDist(p, ·)`` and ``t_p - MinDist(·, p)``, sentinels while
unplaced): ``_recompute_bounds`` reduces over those rows and
``_dependence_conflicts`` reads one column of each.  All of these must
agree with the straightforward scalar reference at *every* call of a
real scheduling run, and the rows must hold exactly those terms after
every placement and ejection — checked subclasses of all four framework
schedulers (slack, Cydrome, unidirectional, height) assert exactly that
while whole corpus loops schedule end to end, on every registry target,
covering contention, ejection, cap growth and II escalation states no
hand-written fixture reaches.
"""

import pytest

from repro.bounds import LoopAnalysis
from repro.bounds.mindist import is_path
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.framework import run_attempt
from repro.core.slack import SlackAttempt
from repro.frontend import compile_loop, parse_loop
from repro.ir import build_ddg
from repro.machine import build_machine, cydra5, machine_names
from repro.workloads import paper_corpus

MACHINE = cydra5()

#: The framework's "unconstrained" Lstart.
UNCONSTRAINED = 2**40

#: Every entry of an unplaced op's contribution rows: negated in the
#: Estart rows, as is in the Lstart rows.
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
    """Placed op p's contribution rows are ``t_p + MinDist(p, x)`` and
    ``t_p - MinDist(x, p)`` for every x; an unplaced op's hold the
    sentinels."""
    matrix = attempt.matrix.tolist()
    early_rows = attempt._estart_rows.tolist()
    late_rows = attempt._lstart_rows.tolist()
    ops = range(attempt.n)
    for p in ops:
        if p in attempt.times:
            cycle = attempt.times[p]
            early = [cycle + matrix[p][x] for x in ops]
            late = [cycle - matrix[x][p] for x in ops]
        else:
            early, late = [-UNPLACED] * attempt.n, [UNPLACED] * attempt.n
        assert early_rows[p] == early, f"Estart row of op {p}"
        assert late_rows[p] == late, f"Lstart row of op {p}"


class CheckedKernels:
    """Asserts the framework's kernels against scalar references: the
    rows after construction and every placement and ejection, Estart and
    Lstart after every refresh, the conflicts of every forced placement."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_rows(self)

    def _place(self, op, cycle, forced=False):
        super()._place(op, cycle, forced=forced)
        check_rows(self)

    def _eject(self, oid, cause="force"):
        super()._eject(oid, cause=cause)
        check_rows(self)

    def _refresh_bounds(self):
        super()._refresh_bounds()
        estart, lstart = scalar_bounds(self)
        assert self.estart.tolist() == estart, "Estart differs from the scalar reference"
        assert self.lstart.tolist() == lstart, "Lstart differs from the scalar reference"

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
        outside = sorted(
            oid for oid in self.unplaced if not 0 <= self.lstart[oid] <= self.lstart_cap
        )
        assert not outside, f"unplaced Lstart outside [0, {self.lstart_cap}]: {outside}"
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
    with the weight one too small the two keys tie and argmin's
    first-minimum rule would take the divide.
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
    attempt.lstart[:] = cap
    # Store: slack -1, priority -1; divide: slack -3, priority -3/4.
    attempt.estart[store.oid], attempt.lstart[store.oid] = cap + 1, cap
    attempt.estart[divide.oid], attempt.lstart[divide.oid] = 3, 0
    assert attempt.priority(divide) == attempt.priority(store) + 0.25

    reference = min(
        (loop.ops[oid] for oid in attempt.unplaced),
        key=lambda op: (attempt.priority(op), int(attempt.lstart[op.oid]), op.oid),
    )
    assert reference is store
    assert attempt.choose_operation() is reference
