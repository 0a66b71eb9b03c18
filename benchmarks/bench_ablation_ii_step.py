"""Footnote 6 ablation: II escalation by 4% versus by +1.

Paper reference: "Incrementing II by 1 lowered the total II by 45 at
the expense of 29% more time spent in the scheduler."  Reproduce the
tradeoff's direction: the +1 policy never yields a *larger* total II but
costs more scheduling work (placements) on the loops that miss MII.
"""

from repro.core import SchedulerOptions
from repro.experiments import run_corpus

from harness import corpus, corpus_size, machine, measured, publish

PLUS_ONE = SchedulerOptions(ii_step_percent=0.0)


def test_ablation_ii_step(benchmark):
    plus_one = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack", options=PLUS_ONE),
        rounds=1,
        iterations=1,
    )
    four_percent = measured("slack")

    total_plus = sum(m.ii for m in plus_one if m.success)
    total_four = sum(m.ii for m in four_percent if m.success)
    work_plus = sum(m.placements for m in plus_one)
    work_four = sum(m.placements for m in four_percent)
    text = "\n".join(
        [
            "Ablation: II escalation policy (footnote 6)",
            f"{'policy':<16} {'sum II':>8} {'placements':>12} {'restarts':>9}",
            f"{'II += 4%':<16} {total_four:>8} {work_four:>12} "
            f"{sum(m.attempts - 1 for m in four_percent):>9}",
            f"{'II += 1':<16} {total_plus:>8} {work_plus:>12} "
            f"{sum(m.attempts - 1 for m in plus_one):>9}",
            f"(corpus size {corpus_size()})",
        ]
    )
    publish("ablation_ii_step", text)

    # +1 finds an II at least as small, at no less scheduling work.
    assert total_plus <= total_four
    assert work_plus >= work_four * 0.95
