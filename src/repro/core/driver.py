"""Top-level scheduling driver: the escalating-II loop (§4.2 step 6).

``modulo_schedule(loop, machine)`` computes MII = max(ResMII, RecMII),
attempts the chosen scheduler at MII, and on failure increments II by
``max(floor(0.04 * II), 1)`` — the paper's compromise that trades a
little II for far less compile time on large complex loops (footnote 6;
the +1 policy is available for the ablation bench).

Observability: pass one :class:`~repro.obs.observer.Observer`, whose
tracer records every scheduler decision (attempt starts, placements,
ejections, II escalations, outcomes), whose metrics registry records
aggregates (per-phase wall time, window-scan lengths, MRT occupancy)
and whose profiler records the span tree; each attempt gets the same
observer.  The default records nothing.  Time has one source either
way: each attempt runs in ``driver.setup`` and ``driver.place`` spans
(the default profiler times them without recording), and the
``SchedulerStats`` times and ``phase.*`` timers are read from those
spans and the MinDist's ``bounds.mindist`` span.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Optional

from repro.bounds.analysis import LoopAnalysis
from repro.ir.ddg import DDG, build_ddg
from repro.ir.loop import LoopBody
from repro.machine.machine import Machine
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.framework import placement_budget, run_attempt
from repro.core.schedule import ScheduleResult, SchedulerStats
from repro.core.slack import SlackAttempt
from repro.obs import trace as tracing
from repro.obs.metrics import record_mrt_occupancy
from repro.obs.observer import NULL_OBSERVER, Observer

logger = logging.getLogger(__name__)


def _warp(analysis: LoopAnalysis, ii: int, observer: Optional[Observer] = None):
    """One attempt of the §8 hierarchical list scheduler, whose module
    loads on first use: only runs that ask for "warp" import it."""
    from repro.core.warp import WarpScheduler

    return WarpScheduler(analysis, ii, observer=observer)


#: Registry of scheduler algorithms selectable by name.  "warp" is the
#: §8 hierarchical list scheduler, which does not use the
#: operation-driven backtracking framework.
ALGORITHMS = {
    "slack": SlackAttempt,
    "cydrome": CydromeAttempt,
    "unidirectional": UnidirectionalAttempt,
    "height": HeightAttempt,
    "warp": _warp,
}


@dataclasses.dataclass
class SchedulerOptions:
    """Tunable knobs of the scheduling driver.

    Attributes:
        budget_ratio: Placement budget per attempt, as a multiple of the
            loop's operation count (step 6's "ejected too many times").
        max_attempts: How many IIs to try before declaring failure (the
            paper's Cydrome runs failed to pipeline 14 loops).
        ii_step_percent: II escalation rate; 0.04 is the paper's choice,
            0.0 degenerates to the +1 policy of footnote 6.
        bidirectional: Disable for the §7 ablation (slack algorithm only).
        dynamic_priority: Disable to freeze each operation's *initial*
            slack as its priority (the Cydrome-style static scheme the
            §8 discussion contrasts with; slack algorithm only).
        critical_threshold: Fraction of II at which a resource counts as
            critical (0.90 in §4.3).
        max_rr_pressure: Optional rotating-register budget.  The paper
            assumes infinite registers (footnote 1: "no one as yet has a
            good strategy for spilling registers in a software
            pipeline"); this extension instead *slows the pipeline down*
            — a schedule whose MaxLive exceeds the budget is rejected
            and II escalates, trading throughput for registers without
            spill code.
    """

    budget_ratio: float = 16.0
    max_attempts: int = 15
    ii_step_percent: float = 0.04
    bidirectional: bool = True
    dynamic_priority: bool = True
    critical_threshold: float = 0.90
    max_rr_pressure: Optional[int] = None

    def next_ii(self, ii: int) -> int:
        return ii + max(int(self.ii_step_percent * ii), 1)


def modulo_schedule(
    loop: LoopBody,
    machine: Machine,
    algorithm: str = "slack",
    options: Optional[SchedulerOptions] = None,
    ddg: Optional[DDG] = None,
    observer: Optional[Observer] = None,
) -> ScheduleResult:
    """Modulo schedule ``loop`` for ``machine``.

    Args:
        loop: A finalized loop body.
        machine: Target machine description.
        algorithm: "slack" (the paper), "cydrome" (the Table 4
            baseline), or "unidirectional" (the §7 ablation).
        options: Driver knobs; defaults reproduce the paper's settings.
        ddg: Pre-built dependence graph (rebuilt when omitted); its
            :class:`~repro.bounds.analysis.LoopAnalysis` carries over
            between calls.
        observer: Optional :class:`~repro.obs.observer.Observer`: the
            decision trace, aggregate metrics and span profile to
            record into (see repro.obs).

    Returns:
        A :class:`ScheduleResult`; ``result.success`` is False when every
        attempted II exhausted its budget.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {sorted(ALGORITHMS)}")
    attempt_cls = ALGORITHMS[algorithm]
    options = options or SchedulerOptions()
    observer = observer or NULL_OBSERVER
    trace, metrics, prof = observer.trace, observer.metrics, observer.prof
    if ddg is None:
        with prof.span("driver.build_ddg"):
            ddg = build_ddg(loop, machine)

    # Every placement-independent fact comes from the graph's analysis:
    # re-scheduling a prebuilt graph (service cache hits, benches,
    # escalation studies) skips the RecMII search, unit-pressure scans
    # and binding prepass entirely.
    analysis = LoopAnalysis.of(ddg)
    with prof.span("bounds.resmii"):
        res_mii = analysis.res_mii
    with prof.span("bounds.recmii"):
        rec_mii = analysis.rec_mii
    mii = analysis.mii

    if algorithm == "warp":
        kwargs = {}
    else:
        kwargs = {"budget_ratio": options.budget_ratio}
        if attempt_cls is SlackAttempt:
            kwargs["bidirectional"] = options.bidirectional
            kwargs["dynamic_priority"] = options.dynamic_priority
            kwargs["critical_threshold"] = options.critical_threshold

    stats = SchedulerStats()
    ii = mii
    last_ii = mii
    schedule = None
    for _ in range(options.max_attempts):
        if trace is not None:
            budget = 0 if algorithm == "warp" else placement_budget(loop, options.budget_ratio)
            trace.emit(
                tracing.AttemptStart(
                    algorithm=algorithm,
                    ii=ii,
                    n_ops=len(loop.real_ops),
                    budget=budget,
                )
            )
        with prof.span("driver.attempt"):
            prof.count("driver.attempts")
            with prof.span("driver.setup") as setup:
                attempt = attempt_cls(analysis, ii, observer=observer, **kwargs)
            with prof.span("driver.place") as place:
                schedule = run_attempt(attempt)
        # The MinDist span nests in the setup span: the rest of setup
        # (MRT, MinLT, critical units, macro nodes) is attempt setup.
        attempt_stats = attempt.stats
        attempt_stats.attempts = 1
        attempt_stats.mindist_seconds = attempt.mindist.seconds
        attempt_stats.setup_seconds = setup.seconds - attempt.mindist.seconds
        attempt_stats.scheduling_seconds = place.seconds
        stats.merge(attempt_stats)
        if metrics is not None:
            metrics.counter("scheduler.attempts").inc()
            metrics.timer("phase.mindist").add(attempt_stats.mindist_seconds)
            metrics.timer("phase.attempt_setup").add(attempt_stats.setup_seconds)
            metrics.timer("phase.scheduling").add(attempt_stats.scheduling_seconds)
        last_ii = ii
        if schedule is not None and options.max_rr_pressure is not None:
            from repro.bounds.lifetimes import rr_max_live

            pressure = rr_max_live(loop, ddg, schedule.times, ii)
            if pressure > options.max_rr_pressure:
                schedule = None  # over budget: slow the pipeline down
                if trace is not None:
                    trace.emit(
                        tracing.AttemptFail(
                            ii=ii,
                            reason=(
                                f"MaxLive {pressure} exceeds register budget "
                                f"{options.max_rr_pressure}"
                            ),
                        )
                    )
        if schedule is not None:
            break
        next_ii = options.next_ii(ii)
        logger.info(
            "%s: attempt at II=%d failed (%d ejections so far); escalating to II=%d",
            loop.name, ii, stats.ejections, next_ii,
        )
        if trace is not None:
            trace.emit(
                tracing.IIEscalate(
                    old_ii=ii,
                    new_ii=next_ii,
                    reason=f"attempt {stats.attempts} failed at II={ii}",
                )
            )
        ii = next_ii

    if schedule is not None:
        logger.info(
            "%s: scheduled at II=%d (MII=%d) after %d attempt(s), %d ejections",
            loop.name, schedule.ii, mii, stats.attempts, stats.ejections,
        )
        if trace is not None:
            trace.emit(
                tracing.ScheduleFound(
                    ii=schedule.ii, span=schedule.span, stages=schedule.stages
                )
            )
        record_mrt_occupancy(metrics, schedule)

    return ScheduleResult(
        loop=loop,
        machine=machine,
        schedule=schedule,
        mii=mii,
        res_mii=res_mii,
        rec_mii=rec_mii,
        stats=stats,
        last_attempted_ii=last_ii,
    )
