"""Figure 7: GPR pressure and combined GPRs + MaxLive.

Paper reference: 97% of loops use <= 16 GPRs (only 3 exceed 32); 82% of
loops keep RRs + GPRs <= 32 and only 16 exceed 64 combined.  Reproduce:
small invariant counts and a combined distribution dominated by its
low bins.
"""

from repro.experiments import cumulative_at, figure7, run_corpus

from harness import corpus, corpus_size, machine, measured, publish


def test_figure7(benchmark):
    new = benchmark.pedantic(
        lambda: run_corpus(corpus(), machine(), algorithm="slack"),
        rounds=1,
        iterations=1,
    )
    old = measured("cydrome")
    publish("figure7", figure7(new, old) + f"\n(corpus size {corpus_size()})")

    gprs = [m.gprs for m in new]
    combined = [m.gprs + m.max_live for m in new if m.success]
    assert cumulative_at(gprs, 16) >= 90.0  # paper: 97% <= 16 GPRs
    assert cumulative_at(combined, 32) >= 70.0  # paper: 82% <= 32 combined
