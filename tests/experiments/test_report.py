"""Direct coverage for experiments/report.py and the runner's timers."""

from repro.core import SchedulerOptions
from repro.experiments import full_report, measure_loop, run_corpus
from repro.experiments.report import _RULE
from repro.machine import cydra5
from repro.obs import MetricsRegistry, Profiler
from repro.workloads import paper_corpus

MACHINE = cydra5()


# ----------------------------------------------------------------------
# full_report assembly
# ----------------------------------------------------------------------
def test_full_report_sections_are_rule_separated():
    text = full_report(8, seed=11)
    # Header + 8 artifacts = 9 sections joined by the rule separator.
    assert text.count(_RULE) == 8
    assert "evaluation over 8 loops" in text


def _stable_lines(text):
    """Report lines minus wall-clock ones (the §6 effort time split)."""
    return [line for line in text.splitlines() if "s (" not in line]


def test_full_report_is_deterministic_for_fixed_seed():
    assert _stable_lines(full_report(6, seed=42)) == _stable_lines(
        full_report(6, seed=42)
    )


def test_full_report_honors_options_and_machine():
    # A starved budget must change scheduling outcomes somewhere in the
    # report (more failures / higher IIs), proving options reach the
    # runner rather than being dropped on the floor.  Compare only
    # timing-stable lines so the difference is real outcomes, not clock
    # noise; this corpus is one where starvation demonstrably bites.
    starved = SchedulerOptions(budget_ratio=0.01, max_attempts=1)
    default_text = full_report(16, seed=7)
    starved_text = full_report(16, seed=7, options=starved)
    assert _stable_lines(default_text) != _stable_lines(starved_text)


# ----------------------------------------------------------------------
# Per-phase timer accumulation (runner -> MetricsRegistry)
# ----------------------------------------------------------------------
def test_measure_loop_accumulates_phase_timers():
    program = paper_corpus(1, seed=5)[0]
    metrics = MetricsRegistry()
    measure_loop(program, MACHINE, metrics=metrics)
    snap = metrics.snapshot()["timers"]
    for phase in ("phase.recmii", "phase.mindist", "phase.scheduling"):
        assert phase in snap, phase
        assert snap[phase]["count"] >= 1
        assert snap[phase]["seconds"] >= 0.0


def test_measure_loop_times_the_mindist_build_at_mii(monkeypatch):
    # Every closure build sleeps 50 ms, so a build no timer covers
    # leaves mindist_seconds near 0.
    import time

    import repro.bounds.analysis as analysis
    from repro.workloads import named_kernels

    build = analysis.compute_closure

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(analysis, "compute_closure", slow_build)
    program = next(p for p in named_kernels() if p.name == "ll1_hydro")
    metrics = MetricsRegistry()
    loop_metrics = measure_loop(program, MACHINE, metrics=metrics)
    assert loop_metrics.mindist_seconds >= 0.05
    assert metrics.snapshot()["timers"]["phase.mindist"]["seconds"] >= 0.05


def test_run_corpus_timer_counts_scale_with_corpus():
    programs = paper_corpus(5, seed=5)
    metrics = MetricsRegistry()
    results = run_corpus(programs, MACHINE, metrics=metrics)
    assert len(results) == 5
    snap = metrics.snapshot()["timers"]
    assert snap["phase.recmii"]["count"] == 5
    # One mindist/scheduling accumulation per driver attempt, and at
    # least one attempt per loop.
    assert snap["phase.scheduling"]["count"] >= 5
    assert snap["phase.mindist"]["count"] == snap["phase.scheduling"]["count"]


def test_phase_timers_match_loop_metrics_totals():
    """The registry's per-phase seconds are the sum of each loop's."""
    programs = paper_corpus(4, seed=9)
    metrics = MetricsRegistry()
    results = run_corpus(programs, MACHINE, metrics=metrics)
    snap = metrics.snapshot()["timers"]
    total_sched = sum(m.scheduling_seconds for m in results)
    assert abs(snap["phase.scheduling"]["seconds"] - total_sched) < 1e-6


def test_measure_loop_forwards_profiler():
    program = paper_corpus(1, seed=5)[0]
    prof = Profiler()
    measure_loop(program, MACHINE, profiler=prof)
    spans = prof.snapshot()["spans"]
    assert "driver.attempt" in spans
    assert "bounds.mindist" in spans  # the runner's MII-analysis MinDist


def test_attempt_setup_phase_separated_from_mindist():
    # Timer attribution: the MinDist build and the rest of attempt
    # construction (binding tables, MinLT, critical units) are charged
    # to distinct phases, each accumulated once per driver attempt.
    programs = paper_corpus(5, seed=5)
    metrics = MetricsRegistry()
    run_corpus(programs, MACHINE, metrics=metrics)
    snap = metrics.snapshot()["timers"]
    assert snap["phase.attempt_setup"]["count"] == snap["phase.mindist"]["count"]
    assert snap["phase.attempt_setup"]["seconds"] >= 0.0
    assert snap["phase.mindist"]["seconds"] >= 0.0
