"""Figure 8: ICR predicate usage.

Paper reference: ICR pressure is of no real concern — only one loop of
1,525 uses more than 32 predicates (both schedulers generate similar
ICR pressure).  Reproduce: a distribution overwhelmingly below 32.
"""

from repro.experiments import cumulative_at, figure8, run_corpus

from harness import corpus, corpus_size, machine, publish


def test_figure8(benchmark):
    new = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack"),
        rounds=1,
        iterations=1,
    )
    publish("figure8", figure8(new) + f"\n(corpus size {corpus_size()})")

    icr = [m.icr for m in new if m.success]
    over = sum(1 for v in icr if v > 32)
    assert over <= max(1, len(icr) // 100)  # paper: 1 loop of 1,525
