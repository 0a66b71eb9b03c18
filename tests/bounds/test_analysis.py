"""The LoopAnalysis contract: one owner for every placement-independent
fact about a dependence graph, computed once and freed with the graph."""

import gc
import sys
import weakref

import pytest

from repro.bounds import (
    LoopAnalysis,
    MinDist,
    critical_unit_instances,
    min_avg,
    min_lifetime,
    resmii,
    strongly_connected_components,
)
from repro.core import ALGORITHMS, SlackAttempt, acyclic_ddg, modulo_schedule, run_attempt
from repro.experiments import measure_loop
from repro.frontend import compile_loop
from repro.ir import DType, LoopBody, Opcode, Operand, build_ddg
from repro.machine.machine import Machine
from repro.obs.metrics import MetricsRegistry
from repro.workloads import paper_corpus

from tests.conftest import build_figure1_loop


def _calls(functions, thunk):
    """Run ``thunk`` and record each Python-level call into each
    function, however it was imported or cached by the caller, as
    ``(calling function's name, arguments)``; a comprehension or
    generator counts as the function it runs in."""
    codes = {function.__code__: function.__name__ for function in functions}
    calls = {name: [] for name in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            calls[codes[frame.f_code]].append((caller.f_code.co_name, dict(frame.f_locals)))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
    return calls


def test_measure_loop_computes_each_bound_once(machine):
    # gen_both_7 escalates II under slack, gen_recurrence_0 under warp.
    escalating = [
        compile_loop(program)
        for program in paper_corpus(300, 1993)
        if program.name in ("gen_both_7", "gen_recurrence_0")
    ]
    assert len(escalating) == 2
    assert LoopAnalysis.of(build_ddg(build_figure1_loop(), machine)).rec_mii == 1
    for loop in [build_figure1_loop()] + escalating:
        for algorithm in ("slack", "warp"):
            calls = _calls(
                [
                    Machine.bind_units, resmii, strongly_connected_components,
                    critical_unit_instances, min_lifetime,
                ],
                lambda: measure_loop(loop, machine, algorithm=algorithm),
            )
            case = f"{loop.name} under {algorithm}"
            assert len(calls["bind_units"]) == 1 and len(calls["resmii"]) == 1, case
            # One whole-graph Tarjan pass; RecMII's zero-distance check
            # runs on one recurrence component's arcs, a smaller graph.
            sizes = [args["n"] for _, args in calls["strongly_connected_components"]]
            assert sizes.count(loop.n_ops) == 1, case
            # One critical-unit scan per (II, threshold), MII's included.
            scans = [
                (args["ii"], args["threshold"])
                for _, args in calls["critical_unit_instances"]
            ]
            assert scans and len(scans) == len(set(scans)), case
            # min_avg sums the analysis's MinLT table.
            assert all(caller != "min_avg" for caller, _ in calls["min_lifetime"]), case


def test_min_avg_rejects_a_mindist_built_at_another_ii(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    assert min_avg(loop, ddg, MinDist(ddg, 2), 2) == 4
    with pytest.raises(ValueError, match="MinDist at II=2"):
        min_avg(loop, ddg, MinDist(ddg, 3), 2)
    with pytest.raises(ValueError, match="MinDist at II=2"):
        min_avg(loop, ddg, MinDist(build_ddg(loop, machine), 2), 2)


def test_scheduling_adds_no_attribute_to_the_graph(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    before = set(vars(ddg))
    result = modulo_schedule(loop, machine, ddg=ddg)
    MinDist(ddg, result.schedule.ii)
    assert set(vars(ddg)) == before
    assert isinstance(ddg.analysis, LoopAnalysis)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_dropping_a_scheduled_graph_frees_it_without_gc(machine, algorithm):
    # The graph owns its analysis and the analysis points back weakly:
    # with no reference cycle, reference counting alone frees the graph
    # and its closure matrices.
    loop = build_figure1_loop()
    gc.collect()
    gc.disable()
    try:
        ddg = build_ddg(loop, machine)
        result = modulo_schedule(loop, machine, algorithm=algorithm, ddg=ddg)
        MinDist(ddg, result.schedule.ii)
        graph, analysis = weakref.ref(ddg), weakref.ref(ddg.analysis)
        del ddg
        assert graph() is None and analysis() is None
    finally:
        gc.enable()


def test_mindist_after_scheduling_is_the_attempts_matrix(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    analysis = LoopAnalysis.of(ddg)
    attempt = SlackAttempt(analysis, analysis.mii)
    assert run_attempt(attempt) is not None
    mindist = MinDist(ddg, analysis.mii)
    assert mindist.matrix is attempt.matrix
    assert not mindist.matrix.flags.writeable

    result = modulo_schedule(loop, machine, ddg=ddg)
    metrics = MetricsRegistry()
    MinDist(ddg, result.schedule.ii, metrics=metrics)
    assert metrics.snapshot()["counters"] == {"mindist.cache_hits": 1}


def test_one_analysis_per_graph_not_per_loop(machine):
    loop = LoopBody("mac")
    s = loop.new_value("s", DType.FLOAT)
    c = loop.invariant("c", DType.FLOAT)
    loop.add_op(Opcode.MUL_F, s, [Operand(s, back=1), Operand(c)])
    loop.finalize()
    full, block = build_ddg(loop, machine), acyclic_ddg(loop, machine)
    assert LoopAnalysis.of(full) is LoopAnalysis.of(full)
    assert LoopAnalysis.of(full) is not LoopAnalysis.of(block)
    # The carried s = s * c circuit binds II on the loop, not the block.
    assert LoopAnalysis.of(full).rec_mii == 2
    assert LoopAnalysis.of(block).rec_mii == 1


def test_analysis_does_not_keep_its_graph_alive(machine):
    analysis = LoopAnalysis.of(build_ddg(build_figure1_loop(), machine))
    with pytest.raises(ReferenceError):
        analysis.rec_mii
