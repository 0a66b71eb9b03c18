"""Direct coverage for experiments/report.py and the runner's spans."""

import pytest

from repro.core import SchedulerOptions
from repro.experiments import full_report, measure_loop, run_corpus
from repro.experiments.report import _RULE
from repro.machine import cydra5
from repro.obs import MetricsRegistry, Observer
from repro.workloads import paper_corpus

MACHINE = cydra5()

#: The driver's per-attempt span paths: set-up, the MinDist build inside
#: it, and placement.
SETUP = "driver.attempt;driver.setup"
MINDIST = f"{SETUP};bounds.mindist"
PLACE = "driver.attempt;driver.place"

#: The three ways run_corpus can run: in-process, through the batch
#: service's process pool, and through its serial path (jobs=1 with a
#: cache).
ROUTES = ("in-process", "pool", "serial-service")


def _route(route, tmp_path):
    """run_corpus keyword arguments that select ``route``."""
    if route == "pool":
        return {"jobs": 2}
    if route == "serial-service":
        return {"cache_dir": str(tmp_path / "cache")}
    return {}


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
# Per-phase span accumulation (runner -> MetricsRegistry)
# ----------------------------------------------------------------------
def test_measure_loop_accumulates_phase_timers():
    program = paper_corpus(1, seed=5)[0]
    metrics = MetricsRegistry()
    measure_loop(program, MACHINE, observer=Observer(metrics=metrics))
    spans = metrics.snapshot()["spans"]
    for path in ("bounds.recmii", MINDIST, PLACE):
        assert path in spans, path
        assert spans[path]["calls"] >= 1
        assert spans[path]["cum_seconds"] >= 0.0


def test_measure_loop_times_the_mindist_build_at_mii(monkeypatch):
    # Every closure build sleeps 50 ms, so a build no span covers
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
    loop_metrics = measure_loop(program, MACHINE, observer=Observer(metrics=metrics))
    assert loop_metrics.mindist_seconds >= 0.05
    assert metrics.snapshot()["spans"][MINDIST]["cum_seconds"] >= 0.05


def test_measure_loop_times_recmii_in_its_profiler_span(monkeypatch):
    # RecMII sleeps 50 ms, so the record and the span profile must both
    # see at least that much, from the same span.
    import time

    import repro.bounds.analysis as analysis
    from repro.workloads import named_kernels

    search = analysis.recmii

    def slow_search(*args):
        time.sleep(0.05)
        return search(*args)

    monkeypatch.setattr(analysis, "recmii", slow_search)
    program = next(p for p in named_kernels() if p.name == "ll1_hydro")
    metrics = MetricsRegistry()
    loop_metrics = measure_loop(program, MACHINE, observer=Observer(metrics=metrics))
    assert loop_metrics.recmii_seconds >= 0.05
    recmii = metrics.snapshot()["spans"]["bounds.recmii"]
    # measure_loop's span, then the driver's (a cache hit).
    assert recmii["calls"] == 2
    assert recmii["cum_seconds"] >= loop_metrics.recmii_seconds


def test_corpus_times_equal_their_profile_spans():
    registry = MetricsRegistry()
    results = run_corpus(
        paper_corpus(5, seed=5), MACHINE, observer=Observer(metrics=registry)
    )
    spans = registry.snapshot()["spans"]
    place = spans[PLACE]["cum_seconds"]
    mindist = spans[MINDIST]["cum_seconds"]
    assert abs(sum(m.scheduling_seconds for m in results) - place) < 1e-9
    assert abs(sum(m.mindist_seconds for m in results) - mindist) < 1e-9


@pytest.mark.parametrize("route", ROUTES)
def test_run_corpus_timer_counts_scale_with_corpus(route, tmp_path):
    programs = paper_corpus(5, seed=5)
    metrics = MetricsRegistry()
    results = run_corpus(
        programs, MACHINE, observer=Observer(metrics=metrics),
        **_route(route, tmp_path),
    )
    assert len(results) == 5
    spans = metrics.snapshot()["spans"]
    # measure_loop's RecMII span and the driver's, per loop.
    assert spans["bounds.recmii"]["calls"] == 2 * 5
    # One MinDist build and placement per driver attempt, and at least
    # one attempt per loop.
    assert spans[PLACE]["calls"] == sum(m.attempts for m in results) >= 5
    assert spans[MINDIST]["calls"] == spans[PLACE]["calls"]


@pytest.mark.parametrize("route", ROUTES)
def test_phase_timers_match_loop_metrics_totals(route, tmp_path):
    """The registry's per-phase span seconds are the sum of each loop's."""
    programs = paper_corpus(4, seed=9)
    metrics = MetricsRegistry()
    results = run_corpus(
        programs, MACHINE, observer=Observer(metrics=metrics),
        **_route(route, tmp_path),
    )
    spans = metrics.snapshot()["spans"]
    total_sched = sum(m.scheduling_seconds for m in results)
    assert abs(spans[PLACE]["cum_seconds"] - total_sched) < 1e-6
    total_mindist = sum(m.mindist_seconds for m in results)
    assert abs(spans[MINDIST]["cum_seconds"] - total_mindist) < 1e-6


def _scheduler_instruments(registry):
    """A registry dump without its ``service.*`` instruments and spans:
    counters, gauges, histogram values and span call counts (span
    seconds are wall clock)."""
    dump = registry.dump()

    def scheduler(section):
        return {
            name: value for name, value in dump[section].items()
            if not name.startswith("service.")
        }

    return {
        "counters": scheduler("counters"),
        "gauges": scheduler("gauges"),
        "span_calls": {
            path: entry["calls"] for path, entry in scheduler("spans").items()
        },
        "histogram_values": scheduler("histogram_values"),
    }


def test_scheduler_instruments_identical_on_every_route(tmp_path):
    """A metrics-only observer gets the same scheduler instruments
    whether the corpus runs in-process or through the batch service."""
    programs = paper_corpus(8)
    instruments = {}
    for route in ROUTES:
        metrics = MetricsRegistry()
        run_corpus(
            programs, MACHINE, observer=Observer(metrics=metrics),
            **_route(route, tmp_path),
        )
        instruments[route] = _scheduler_instruments(metrics)
    reference = instruments["in-process"]
    assert reference["span_calls"]["bounds.recmii"] == 2 * 8
    assert reference["counters"]["scheduler.attempts"] >= 8
    assert reference["histogram_values"]["scheduler.scan_window_length"]
    assert all(
        len(reference["histogram_values"][f"mrt.occupancy.{unit.name}[{i}]"]) == 8
        for unit in MACHINE.unit_classes
        for i in range(unit.count)
    )
    assert instruments["pool"] == reference
    assert instruments["serial-service"] == reference


def test_measure_loop_forwards_profiler():
    program = paper_corpus(1, seed=5)[0]
    registry = MetricsRegistry()
    measure_loop(program, MACHINE, observer=Observer(metrics=registry))
    spans = registry.snapshot()["spans"]
    assert "driver.attempt" in spans
    assert "bounds.mindist" in spans  # the runner's MII-analysis MinDist


def test_attempt_setup_phase_separated_from_mindist():
    # Span attribution: the MinDist build nests in attempt set-up, so
    # the rest of attempt construction (binding tables, MinLT, critical
    # units) is set-up minus it, and both run once per driver attempt.
    programs = paper_corpus(5, seed=5)
    metrics = MetricsRegistry()
    results = run_corpus(programs, MACHINE, observer=Observer(metrics=metrics))
    spans = metrics.snapshot()["spans"]
    attempts = sum(m.attempts for m in results)
    assert spans[SETUP]["calls"] == spans[MINDIST]["calls"] == attempts
    assert spans[SETUP]["cum_seconds"] >= spans[MINDIST]["cum_seconds"] >= 0.0
    assert spans[SETUP]["self_seconds"] >= 0.0
