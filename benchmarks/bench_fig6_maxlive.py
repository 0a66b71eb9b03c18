"""Figure 6: MaxLive — overall rotating-register pressure.

Paper reference: modulo scheduling does not need excessively many
rotating registers — 92% of loops use <= 32 RRs and only 5 loops exceed
64.  Reproduce: the bulk of the distribution below 32 registers and a
thin tail past 64.
"""

from repro.experiments import cumulative_at, figure6, run_corpus

from harness import corpus, corpus_size, machine, measured, publish


def test_figure6(benchmark):
    new = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack"),
        rounds=1,
        iterations=1,
    )
    old = measured("cydrome")
    publish("figure6", figure6(new, old) + f"\n(corpus size {corpus_size()})")

    live = [m.max_live for m in new if m.success]
    assert cumulative_at(live, 32) >= 75.0  # paper: 92% <= 32 RRs
    heavy = sum(1 for v in live if v > 64)
    assert heavy <= max(2, len(live) // 50)  # paper: 5 loops of 1,525
