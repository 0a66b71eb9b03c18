"""§7 robustness, machine-width axis: narrow and wide Table 1 variants.

Complements the load-latency sweep: the §7 claim that the scheduler "is
quite robust" is tested against machines with halved and doubled
functional-unit counts.  Expectations: optimality (II = MII for the
*respective* machine's MII) stays high everywhere, and the bidirectional
pressure advantage survives — resource scarcity changes MII, not the
scheduler's ability to reach it.
"""

import dataclasses

from repro.experiments import run_corpus
from repro.machine import Machine, table1_units

from harness import corpus, corpus_size, publish


def _scaled_machine(name: str, factor: float) -> Machine:
    units = tuple(
        dataclasses.replace(unit, count=max(1, int(unit.count * factor)))
        for unit in table1_units()
    )
    return Machine(name, units)


MACHINES = [
    ("narrow (1x ports)", _scaled_machine("cydra5-narrow", 0.5)),
    ("paper (Table 1)", _scaled_machine("cydra5-paper", 1.0)),
    ("wide (2x units)", _scaled_machine("cydra5-wide", 2.0)),
]


def _measure():
    programs = corpus()[: min(200, corpus_size())]
    rows = {}
    for label, target in MACHINES:
        slack = run_corpus(programs, target, algorithm="slack")
        early = run_corpus(programs, target, algorithm="unidirectional")
        rows[label] = {
            "optimal": 100.0 * sum(1 for m in slack if m.optimal) / len(slack),
            "sum_mii": sum(m.mii for m in slack),
            "sum_ii": sum(m.ii for m in slack if m.success),
            "slack_pressure": sum(m.max_live for m in slack if m.success),
            "early_pressure": sum(m.max_live for m in early if m.success),
        }
    return rows


def test_robustness_width(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    lines = [
        "Robustness: machine-width sweep (Section 7)",
        f"{'machine':<20} {'II=MII':>8} {'sum MII':>8} {'sum II':>8} "
        f"{'slack prs':>10} {'early prs':>10}",
    ]
    for label, row in rows.items():
        lines.append(
            f"{label:<20} {row['optimal']:>7.1f}% {row['sum_mii']:>8} "
            f"{row['sum_ii']:>8} {row['slack_pressure']:>10} {row['early_pressure']:>10}"
        )
    publish("robustness_width", "\n".join(lines) + f"\n(corpus size {corpus_size()})")

    for label, row in rows.items():
        assert row["optimal"] >= 90.0, label
        assert row["slack_pressure"] <= row["early_pressure"], label
    # Scarcer resources force larger MIIs; wider ones smaller.
    assert rows["narrow (1x ports)"]["sum_mii"] >= rows["paper (Table 1)"]["sum_mii"]
    assert rows["wide (2x units)"]["sum_mii"] <= rows["paper (Table 1)"]["sum_mii"]
