"""Table 4: Cydrome-style baseline performance by loop class.

Paper reference: Cydrome's scheduler achieves MII on 91% of loops
(1,393/1,525), fails to pipeline 14 loops, and lands at total II / MII
= 1.12x, an 11% slowdown versus the slack scheduler.  The qualitative
claims to reproduce: strictly fewer optimal loops than Table 3, a worse
aggregate ratio, and a heavier II > MII tail.
"""

from repro.experiments import run_corpus, table4

from harness import corpus, corpus_size, machine, measured, publish


def test_table4(benchmark):
    metrics = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="cydrome"),
        rounds=1,
        iterations=1,
    )
    publish("table4", table4(metrics) + f"\n(corpus size {corpus_size()})")

    slack = measured("slack")
    cyd_optimal = sum(1 for m in metrics if m.optimal)
    slack_optimal = sum(1 for m in slack if m.optimal)
    cyd_ratio = sum(m.ii for m in metrics) / max(1, sum(m.mii for m in metrics))
    slack_ratio = sum(m.ii for m in slack) / max(1, sum(m.mii for m in slack))
    # The paper's ordering: the slack scheduler wins on both counts.
    assert cyd_optimal <= slack_optimal
    assert cyd_ratio >= slack_ratio
