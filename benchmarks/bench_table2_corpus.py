"""Table 2: corpus complexity measurements (min / 50% / 90% / max).

Paper reference (1,525 loops):

    # Basic Blocks           1     1     2     30
    # Operations             4    13    33    634
    # Critical Ops at MII    0     4    18    269
    # Ops on Recurrences     0     0    10    178
    # Div/Mod/Sqrt Ops       0     0     0     31
    RecMII                   1     1     4    148
    ResMII                   1     3     9    105
    MII                      1     3     9    148
    MinAvg at MII            2    10    25    157
    # GPRs                   0     3     9     59

We reproduce the shape: op counts with a long tail, RecMII mostly 1,
ResMII dominating MII, MinAvg tracking op counts.
"""

from repro.experiments import run_corpus, table2

from harness import corpus, corpus_size, machine, publish


def test_table2(benchmark):
    metrics = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack"),
        rounds=1,
        iterations=1,
    )
    publish("table2", table2(metrics) + f"\n(corpus size {corpus_size()})")
    assert len(metrics) == corpus_size()
