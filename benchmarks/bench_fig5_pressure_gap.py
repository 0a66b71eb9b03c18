"""Figure 5: MaxLive - MinAvg — distance from the absolute pressure bound.

Paper reference: with the bidirectional slack scheduler, 46% of loops
achieve MaxLive = MinAvg exactly and 93% land within 10 rotating
registers of the bound; Cydrome's scheduler is visibly worse (its
histogram has a heavier tail).  Reproduce: a large optimal mass for the
new scheduler, >=90% within 10 RRs, and new-beats-old in aggregate.
"""

from repro.experiments import cumulative_at, figure5, run_corpus

from harness import corpus, corpus_size, machine, measured, publish


def test_figure5(benchmark):
    new = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack"),
        rounds=1,
        iterations=1,
    )
    old = measured("cydrome")
    publish("figure5", figure5(new, old) + f"\n(corpus size {corpus_size()})")

    new_gaps = [m.pressure_gap for m in new if m.success]
    old_gaps = [m.pressure_gap for m in old if m.success]
    assert cumulative_at(new_gaps, 0) >= 40.0  # paper: 46% optimal
    assert cumulative_at(new_gaps, 10) >= 90.0  # paper: 93% within 10
    # New scheduler at least matches the old one near the bound.
    assert cumulative_at(new_gaps, 0) >= cumulative_at(old_gaps, 0)
    assert sum(new_gaps) <= sum(old_gaps)
