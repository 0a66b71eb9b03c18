"""Unit tests for the kernels, generator and corpus assembly."""

from repro.bounds import LoopAnalysis
from repro.frontend import DoLoop, compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.workloads import (
    CLASSES,
    PAPER_CORPUS_SIZE,
    TABLE3_CLASS_COUNTS,
    LoopGenerator,
    default_corpus_size,
    generate_corpus_slice,
    livermore_kernels,
    named_kernels,
    paper_corpus,
    spec_kernels,
)

MACHINE = cydra5()


def test_kernel_counts():
    from repro.workloads import extra_kernels

    assert len(livermore_kernels()) == 24
    assert len(spec_kernels()) == 12
    assert len(extra_kernels()) == 12
    assert len(named_kernels()) == 48


def test_kernel_names_unique():
    names = [k.name for k in named_kernels()]
    assert len(names) == len(set(names))


def test_all_kernels_compile():
    for program in named_kernels():
        loop = compile_loop(program)
        assert loop.finalized
        assert len(loop.real_ops) >= 3


def test_class_coverage_in_kernels():
    """The hand-written set must exercise all four Table 3 classes."""
    seen = set()
    for program in named_kernels():
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        has_c = bool(loop.meta["has_conditional"])
        from repro.bounds import recmii

        has_r = recmii(ddg) > 1 or bool(LoopAnalysis.of(ddg).recurrence_ops)
        seen.add((has_c, has_r))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_generator_is_deterministic():
    a = LoopGenerator(42).generate("g", "recurrence")
    b = LoopGenerator(42).generate("g", "recurrence")
    assert a.body == b.body
    assert a.arrays == b.arrays
    assert a.scalars == b.scalars


def test_generator_distinct_seeds_differ():
    a = LoopGenerator(1).generate("g", "neither")
    b = LoopGenerator(2).generate("g", "neither")
    assert a.body != b.body or a.arrays != b.arrays


def test_generator_rejects_unknown_class():
    import pytest

    with pytest.raises(ValueError):
        LoopGenerator(0).generate("g", "bogus")


def test_generated_classes_have_requested_features():
    generator = LoopGenerator(5)
    for klass in CLASSES:
        for index in range(8):
            program = generator.generate(f"k{index}", klass)
            loop = compile_loop(program)
            has_c = bool(loop.meta["has_conditional"])
            if klass in ("conditional", "both"):
                assert has_c, f"{klass} loop lacks a conditional"
            else:
                assert not has_c
            if klass in ("recurrence", "both"):
                ddg = build_ddg(loop, MACHINE)
                from repro.bounds import recmii

                assert recmii(ddg) > 1 or LoopAnalysis.of(ddg).recurrence_ops, (
                    f"{klass} loop lacks a recurrence"
                )


def test_neither_loops_have_no_nontrivial_recurrence():
    generator = LoopGenerator(9)
    for index in range(10):
        program = generator.generate(f"n{index}", "neither")
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        assert not LoopAnalysis.of(ddg).recurrence_ops


def test_generate_corpus_slice():
    loops = generate_corpus_slice(seed=3, count=5, klass="conditional")
    assert len(loops) == 5
    assert all(isinstance(p, DoLoop) for p in loops)
    assert len({p.name for p in loops}) == 5


def test_paper_corpus_size_and_composition():
    loops = paper_corpus(100, seed=11)
    assert len(loops) == 100
    assert loops[0].name == "ll1_hydro"  # named kernels lead
    assert len({p.name for p in loops}) == 100


def test_paper_corpus_small_n_truncates_kernels():
    loops = paper_corpus(5)
    assert len(loops) == 5


def test_paper_corpus_full_size_default():
    assert PAPER_CORPUS_SIZE == 1525
    assert sum(TABLE3_CLASS_COUNTS.values()) == 1525


def test_default_corpus_size_env(monkeypatch):
    monkeypatch.setenv("REPRO_CORPUS", "123")
    assert default_corpus_size() == 123
    monkeypatch.setenv("REPRO_CORPUS", "")
    assert default_corpus_size(77) == 77
