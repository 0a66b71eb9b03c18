"""The LoopAnalysis contract: one owner for every placement-independent
fact about a dependence graph, computed once and freed with the graph."""

import gc
import sys
import weakref

import pytest

from repro.bounds import LoopAnalysis, MinDist, recurrence_ops, resmii
from repro.core import ALGORITHMS, SlackAttempt, acyclic_ddg, modulo_schedule, run_attempt
from repro.experiments import measure_loop
from repro.ir import DType, LoopBody, Opcode, Operand, build_ddg
from repro.machine.machine import Machine
from repro.obs.prof import Profiler

from tests.conftest import build_figure1_loop


def _call_counts(functions, thunk):
    """Run ``thunk`` and count Python-level calls into each function,
    however it was imported or cached by the caller."""
    codes = {function.__code__: function.__name__ for function in functions}
    counts = {name: 0 for name in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
    return counts


def test_measure_loop_computes_each_bound_once(machine):
    loop = build_figure1_loop()
    assert LoopAnalysis.of(build_ddg(loop, machine)).rec_mii == 1
    counts = _call_counts(
        [Machine.bind_units, resmii, recurrence_ops],
        lambda: measure_loop(loop, machine),
    )
    assert counts == {"bind_units": 1, "resmii": 1, "recurrence_ops": 1}


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
    profiler = Profiler()
    MinDist(ddg, result.schedule.ii, profiler=profiler)
    assert profiler.snapshot()["counters"] == {"mindist.cache_hits": 1}


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
