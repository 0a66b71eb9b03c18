"""§8 ablation: dynamic slack priority vs frozen initial slack.

The paper's intuition for why the dynamic priority matters: "the
operations on a recurrence circuit can have a lot of slack until one of
them gets placed, at which point the slack can sharply converge nearly
to zero ... The dynamic-priority scheme can detect this transition
because the scheduler maintains precise Estart and Lstart bounds for
all operations at all times."  Cydrome's scheduler instead used a
static priority (minimal *initial* slack) and had to pre-place every
recurrence operation to stay safe.

The 2x2 decomposition below isolates the two slack-scheduler
ingredients — dynamic priority and bidirectional placement — on the
recurrence-bearing loops where the priority scheme earns its keep.
"""

from repro.core import SchedulerOptions
from repro.experiments import run_corpus

from harness import corpus, corpus_size, machine, measured, publish

CONFIGS = [
    ("dynamic + bidirectional", SchedulerOptions()),
    ("dynamic + early-only", SchedulerOptions(bidirectional=False)),
    ("static + bidirectional", SchedulerOptions(dynamic_priority=False)),
    ("static + early-only", SchedulerOptions(dynamic_priority=False, bidirectional=False)),
]


def _summarize(metrics):
    recurrence = [m for m in metrics if m.klass in ("recurrence", "both")]
    return {
        "optimal": 100.0 * sum(1 for m in metrics if m.optimal) / len(metrics),
        "rec_optimal": (
            100.0 * sum(1 for m in recurrence if m.optimal) / len(recurrence)
            if recurrence
            else 0.0
        ),
        "pressure": sum(m.max_live for m in metrics if m.success),
        "ejections": sum(m.ejections for m in metrics),
    }


def test_ablation_priority(benchmark):
    def run_all():
        rows = {}
        for label, options in CONFIGS:
            if label == "dynamic + bidirectional":
                metrics = measured("slack")
            else:
                metrics = run_corpus(
                    corpus(), machine(), algorithm="slack", options=options
                )
            rows[label] = _summarize(metrics)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "Ablation: dynamic priority x bidirectional placement (Sections 4.3, 5.2, 8)",
        f"{'configuration':<26} {'II=MII':>8} {'rec II=MII':>11} "
        f"{'sum MaxLive':>12} {'ejections':>10}",
    ]
    for label, row in rows.items():
        lines.append(
            f"{label:<26} {row['optimal']:>7.1f}% {row['rec_optimal']:>10.1f}% "
            f"{row['pressure']:>12} {row['ejections']:>10}"
        )
    publish("ablation_priority", "\n".join(lines) + f"\n(corpus size {corpus_size()})")

    full = rows["dynamic + bidirectional"]
    static = rows["static + early-only"]
    # The full scheme dominates the fully-static one on both axes.
    assert full["optimal"] >= static["optimal"] - 0.5
    assert full["pressure"] <= rows["dynamic + early-only"]["pressure"]
    # Dynamic priority specifically helps the recurrence classes.
    assert full["rec_optimal"] >= rows["static + bidirectional"]["rec_optimal"] - 0.5
