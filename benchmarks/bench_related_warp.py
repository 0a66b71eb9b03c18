"""§8 comparison: slack scheduling vs Warp-style hierarchical reduction.

Paper: "neither of the two prior approaches is totally satisfactory
because the early placement of all operations from a recurrence circuit
can be an unnecessary constraint on the scheduler; after all, the
minimum schedule length of a recurrence circuit need not be anywhere
near its limit of II cycles.  The empirical results in [9] and Section
7 support this intuition."

This benchmark makes that comparison concrete: Table-3-style rows for
the Warp-style scheduler next to the slack scheduler, on the same
corpus.  Expected shape: the hierarchical scheduler (no backtracking,
recurrences pre-packed) achieves MII less often, fails on more loops,
and pays more II in aggregate — with the gap concentrated in the
recurrence classes.
"""

from repro.experiments import run_corpus, scheduling_performance

from harness import corpus, corpus_size, machine, measured, publish


def test_related_warp(benchmark):
    metrics = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="warp"),
        rounds=1,
        iterations=1,
    )
    slack = measured("slack")
    text = scheduling_performance(
        metrics, "Warp-style hierarchical scheduling performance"
    )
    publish("related_warp", text + f"\n(corpus size {corpus_size()})")

    warp_optimal = sum(1 for m in metrics if m.optimal)
    slack_optimal = sum(1 for m in slack if m.optimal)
    warp_failures = sum(1 for m in metrics if not m.success)
    slack_failures = sum(1 for m in slack if not m.success)
    warp_ii = sum(m.ii for m in metrics if m.success)
    slack_ii = sum(m.ii for m in slack if m.success)

    assert warp_optimal <= slack_optimal
    assert warp_failures >= slack_failures
    # Aggregate II comparison only over the common successful loops.
    common = {
        m.name for m in metrics if m.success
    } & {m.name for m in slack if m.success}
    warp_common = sum(m.ii for m in metrics if m.name in common)
    slack_common = sum(m.ii for m in slack if m.name in common)
    assert warp_common >= slack_common
