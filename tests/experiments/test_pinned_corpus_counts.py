"""Schedule-quality counts of ``paper_corpus(40)``, pinned exactly.

Four runs over the same 40 loops: slack and Cydrome on cydra5; slack
on every default registry target, as one heterogeneous sweep; and
slack on cydra5 over each loop printed with ``render_loop`` and parsed
back, which is the source the scheduling server receives.  Each run's
``corpus_aggregates`` (the counts ``batch --history`` records) and each
target's sums of II, MII, MaxLive and MinAvg must equal the literals
below.  The scheduler is deterministic, so there is no tolerance.
"""

import pytest

from repro.experiments import run_corpus, run_corpus_sweep
from repro.frontend.parser import parse_loop
from repro.frontend.printer import render_loop
from repro.machine import cydra5
from repro.machine.registry import default_machines
from repro.obs.history import corpus_aggregates
from repro.workloads import paper_corpus

CORPUS = 40


def _aggregates(ops, maxlive_over_minavg, ejections, placements):
    """Every ``corpus_aggregates`` value of a run that schedules all 40
    loops at MII with one attempt each."""
    return {
        "loops": CORPUS,
        "loops_scheduled": CORPUS,
        "ops_scheduled": ops,
        "success_rate": 1.0,
        "optimality_rate": 1.0,
        "ii_over_mii": 1.0,
        "maxlive_over_minavg": maxlive_over_minavg,
        "attempts_total": CORPUS,
        "ejections_total": ejections,
        "placements_total": placements,
    }


SLACK = _aggregates(541, 1.054054054054054, 279, 860)
CYDROME = _aggregates(541, 1.0982800982800982, 424, 1005)
#: ``render_loop`` prints a ``Gather`` indexed by ``i`` as the affine
#: ``x(i)``, so the reparsed ll13_pic2d and ll14_pic1d have 2 ops fewer
#: each (see ``repro.frontend.printer``).
RENDERED = _aggregates(537, 1.0525030525030525, 275, 852)
RENDERED_SHORTER = {"ll13_pic2d": 2, "ll14_pic1d": 2}

#: family -> (ΣII, ΣMII, ΣMaxLive, ΣMinAvg, II/MII, MaxLive/MinAvg)
#: over the scheduled loops; every target schedules all 40.
TARGETS = {
    "cydra5": (402, 402, 858, 814, 1.0, 1.054054054054054),
    "vliw-wide": (327, 305, 1181, 1024, 1.0721311475409836, 1.1533203125),
    "clustered": (447, 447, 874, 799, 1.0, 1.0938673341677096),
    "simd": (457, 457, 732, 642, 1.0, 1.1401869158878504),
    "gpu": (934, 934, 2927, 2232, 1.0, 1.3113799283154122),
}


def _values(loop_metrics):
    return {
        name: entry["value"]
        for name, entry in corpus_aggregates(loop_metrics).items()
    }


@pytest.fixture(scope="module")
def programs():
    return paper_corpus(CORPUS)


def test_slack_and_cydrome_on_cydra5(programs):
    machine = cydra5()
    assert _values(run_corpus(programs, machine)) == SLACK
    assert _values(run_corpus(programs, machine, algorithm="cydrome")) == CYDROME


def test_slack_over_rendered_sources(programs):
    reparsed = [parse_loop(render_loop(program)) for program in programs]
    library = run_corpus(programs, cydra5())
    rendered = run_corpus(reparsed, cydra5())
    assert _values(rendered) == RENDERED
    shorter = {
        new.name: old.n_ops - new.n_ops
        for old, new in zip(library, rendered)
        if old.n_ops != new.n_ops
    }
    assert shorter == RENDERED_SHORTER


def test_slack_on_every_target(programs):
    machines = default_machines()
    sweep = run_corpus_sweep(programs, machines)
    found = {}
    for machine, loop_metrics in zip(machines, sweep):
        values = _values(loop_metrics)
        assert values["loops"] == values["loops_scheduled"] == CORPUS
        assert values["success_rate"] == 1.0
        found[machine.wire["name"]] = (
            sum(m.ii for m in loop_metrics),
            sum(m.mii for m in loop_metrics),
            sum(m.max_live for m in loop_metrics),
            sum(m.min_avg for m in loop_metrics),
            values["ii_over_mii"],
            values["maxlive_over_minavg"],
        )
    assert found == TARGETS
