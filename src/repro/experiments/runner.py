"""Corpus runner: schedule every loop and collect LoopMetrics.

Both entry points take one optional
:class:`~repro.obs.observer.Observer` and hand it on unchanged: to the
scheduling driver in-process, or to the batch service, which records
each worker's observations and merges them back in submission order.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.bounds import (
    LoopAnalysis,
    MinDist,
    gpr_count,
    icr_usage,
    min_avg,
    rr_max_live,
)
from repro.core import SchedulerOptions, modulo_schedule
from repro.frontend import DoLoop, compile_loop
from repro.ir import DIVIDER_OPCODES, LoopBody, build_ddg
from repro.machine import Machine, cydra5
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.experiments.metrics import LoopMetrics


def classify(loop: LoopBody, ddg, rec_mii: int) -> str:
    """Table 3's four loop classes.

    "Has recurrence" means the loop carries a *scheduling-relevant*
    recurrence: a non-trivial circuit or a trivial one tight enough to
    constrain II (RecMII > 1).
    """
    has_conditional = bool(loop.meta.get("has_conditional", False))
    has_recurrence = rec_mii > 1 or bool(LoopAnalysis.of(ddg).recurrence_ops)
    if has_conditional and has_recurrence:
        return "both"
    if has_conditional:
        return "conditional"
    if has_recurrence:
        return "recurrence"
    return "neither"


def measure_loop(
    program: Union[DoLoop, LoopBody],
    machine: Optional[Machine] = None,
    algorithm: str = "slack",
    options: Optional[SchedulerOptions] = None,
    observer: Optional[Observer] = None,
) -> LoopMetrics:
    """Schedule one loop and record every evaluation metric.

    ``observer`` is forwarded to the scheduling driver (repro.obs).
    Every recorded time is a profiler span's:
    ``recmii_seconds`` and ``phase.recmii`` come from this function's
    ``bounds.recmii`` span (the driver's later one is a cache hit), the
    rest from the driver's.  The bounds come from the graph's
    :class:`LoopAnalysis`, the same object the driver then schedules
    from, so each is computed once per loop.
    """
    machine = machine or cydra5()
    observer = observer or NULL_OBSERVER
    loop = compile_loop(program) if isinstance(program, DoLoop) else program
    ddg = build_ddg(loop, machine)
    analysis = LoopAnalysis.of(ddg)

    with observer.prof.span("bounds.recmii") as recmii:
        rec_mii = analysis.rec_mii
    if observer.metrics is not None:
        observer.metrics.timer("phase.recmii").add(recmii.seconds)
    res_mii = analysis.res_mii
    mii = analysis.mii

    n_critical = len(analysis.critical_ops(mii))
    n_div = sum(1 for op in loop.real_ops if op.opcode in DIVIDER_OPCODES)

    result = modulo_schedule(
        loop, machine, algorithm=algorithm, options=options, ddg=ddg,
        observer=observer,
    )
    # The first attempt runs at MII and charges its MinDist build to
    # mindist_seconds and phase.mindist; reading the closure before
    # scheduling would build it outside every timer.
    mindist_at_mii = MinDist(ddg, mii, profiler=observer.prof)
    min_avg_mii = min_avg(loop, ddg, mindist_at_mii, mii)

    if result.success:
        times = result.schedule.times
        achieved_ii = result.schedule.ii
        mindist_at_ii = (
            mindist_at_mii
            if achieved_ii == mii
            else MinDist(ddg, achieved_ii, profiler=observer.prof)
        )
        max_live_value = rr_max_live(loop, ddg, times, achieved_ii)
        min_avg_value = min_avg(loop, ddg, mindist_at_ii, achieved_ii)
        icr_value = icr_usage(loop, ddg, times, achieved_ii)
        span, stages = result.schedule.span, result.schedule.stages
        failure_reason = None
    else:
        # No schedule exists: the pressure/shape fields are None (not a
        # fake 0, which would be indistinguishable from a measured 0).
        achieved_ii = result.last_attempted_ii
        max_live_value = min_avg_value = icr_value = None
        span = stages = None
        failure_reason = "attempts_exhausted"

    return LoopMetrics(
        name=loop.name,
        klass=classify(loop, ddg, rec_mii),
        n_basic_blocks=int(loop.meta.get("n_basic_blocks", 1)),
        n_ops=len(loop.real_ops),
        n_critical_ops_at_mii=n_critical,
        n_recurrence_ops=len(analysis.recurrence_ops),
        n_div_ops=n_div,
        rec_mii=rec_mii,
        res_mii=res_mii,
        mii=mii,
        min_avg_at_mii=min_avg_mii,
        gprs=gpr_count(loop),
        success=result.success,
        ii=achieved_ii,
        span=span,
        stages=stages,
        max_live=max_live_value,
        min_avg=min_avg_value,
        icr=icr_value,
        attempts=result.stats.attempts,
        placements=result.stats.placements,
        forced=result.stats.forced,
        ejections=result.stats.ejections,
        mindist_seconds=result.stats.mindist_seconds,
        scheduling_seconds=result.stats.scheduling_seconds,
        recmii_seconds=recmii.seconds,
        failure_reason=failure_reason,
    )


def run_corpus(
    programs,
    machine: Optional[Machine] = None,
    algorithm: str = "slack",
    options: Optional[SchedulerOptions] = None,
    observer: Optional[Observer] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    machines=None,
) -> List[LoopMetrics]:
    """Measure a whole corpus with one scheduler configuration.

    ``jobs`` > 1, a cache directory or per-loop ``machines`` routes the
    corpus through the batch scheduling service
    (:mod:`repro.service`): worker processes, per-job ``timeout``, and a
    content-addressed result cache.  The service path returns metrics
    in the same order with identical values.
    The ``observer`` crosses process boundaries inside the job results,
    merged in submission order, so it records the same scheduler
    observations on either path at any job count (modulo timestamps);
    on the service path its metrics registry also receives
    ``service.*`` aggregates.
    """
    machine = machine or cydra5()
    use_service = jobs != 1 or cache_dir is not None or machines is not None
    if use_service:
        from repro.service import run_batch

        report = run_batch(
            programs,
            machine,
            algorithm=algorithm,
            options=options,
            jobs=jobs,
            timeout=timeout,
            cache_dir=cache_dir,
            observer=observer,
            machines=machines,
        )
        missing = [r for r in report.results if r.metrics is None]
        if missing:
            detail = "; ".join(
                f"{r.name}: {r.status} ({r.error})" for r in missing[:5]
            )
            raise RuntimeError(
                f"{len(missing)} corpus loop(s) produced no metrics: {detail}"
            )
        return report.loop_metrics
    return [
        measure_loop(
            program, machine, algorithm=algorithm, options=options,
            observer=observer,
        )
        for program in programs
    ]


def sweep_layout(programs, machines):
    """Flatten a machines x programs grid into one heterogeneous batch.

    Returns ``(flat_programs, flat_machines)`` — every program repeated
    once per machine, machine-major, so ``flat[i * len(programs) +
    j]`` is ``programs[j]`` under ``machines[i]``.  This is the single
    layout both :func:`run_corpus_sweep` and the batch CLI's
    ``--sweep-machine`` grid use, so their result ordering (and cache
    keys) agree.
    """
    programs = list(programs)
    machines = list(machines)
    flat_programs = [program for _ in machines for program in programs]
    flat_machines = [machine for machine in machines for _ in programs]
    return flat_programs, flat_machines


def run_corpus_sweep(
    programs,
    machines,
    algorithm: str = "slack",
    options: Optional[SchedulerOptions] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
) -> List[List[LoopMetrics]]:
    """Measure one corpus under several machines as ONE heterogeneous batch.

    Returns one metrics list per machine, each ordered like ``programs``
    — the same shape as calling :func:`run_corpus` once per machine,
    but submitted as a single batch so the parallel backends interleave
    work across configurations (and the worker-resident machine cache
    holds every machine at once).  Each (program, machine) pair keeps
    its own cache key, so sweeps are warm-cacheable per configuration.
    """
    programs = list(programs)
    machines = list(machines)
    flat_programs, flat_machines = sweep_layout(programs, machines)
    flat = run_corpus(
        flat_programs,
        algorithm=algorithm,
        options=options,
        jobs=jobs,
        cache_dir=cache_dir,
        timeout=timeout,
        machines=flat_machines,
    )
    n = len(programs)
    return [flat[i * n : (i + 1) * n] for i in range(len(machines))]
