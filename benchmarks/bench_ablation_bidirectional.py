"""§7 ablation: the bidirectional heuristic is what cuts register pressure.

Paper reference: "This performance is due to the bidirectional
heuristics of Section 5.2; without them, the slack scheduler generates
nearly the same register pressure as Cydrome's scheduler."  Reproduce:
slack-with-heuristic <= slack-without-heuristic ~= Cydrome in aggregate
MaxLive, with no loss of achieved II.
"""

from repro.experiments import run_corpus

from harness import corpus, corpus_size, machine, measured, publish


def test_ablation_bidirectional(benchmark):
    unidirectional = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="unidirectional"),
        rounds=1,
        iterations=1,
    )
    slack = measured("slack")
    cydrome = measured("cydrome")

    def total_pressure(metrics):
        return sum(m.max_live for m in metrics if m.success)

    def total_ii(metrics):
        return sum(m.ii for m in metrics if m.success)

    rows = [
        ("slack (bidirectional)", total_pressure(slack), total_ii(slack)),
        ("slack (early-only)", total_pressure(unidirectional), total_ii(unidirectional)),
        ("cydrome baseline", total_pressure(cydrome), total_ii(cydrome)),
    ]
    text = "\n".join(
        ["Ablation: bidirectional placement (Section 7)",
         f"{'configuration':<24} {'sum MaxLive':>12} {'sum II':>8}"]
        + [f"{name:<24} {pressure:>12} {ii:>8}" for name, pressure, ii in rows]
        + [f"(corpus size {corpus_size()})"]
    )
    publish("ablation_bidirectional", text)

    slack_pressure = total_pressure(slack)
    uni_pressure = total_pressure(unidirectional)
    cyd_pressure = total_pressure(cydrome)
    # Bidirectional wins; early-only lands near the Cydrome baseline.
    assert slack_pressure <= uni_pressure
    assert abs(uni_pressure - cyd_pressure) <= 0.15 * cyd_pressure
