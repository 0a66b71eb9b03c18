"""Merge edge cases: empty dumps, duplicate keys, order independence.

The cross-process observability path folds worker registries, spans
included, into the parent's (``MetricsRegistry.merge_dump``).  These
tests pin the algebra the batch report relies on: merging nothing
changes nothing, duplicate keys and span paths accumulate rather than
overwrite, and the exported latency quantiles and span profiles are
independent of merge order.
"""

import itertools

from repro.obs.metrics import Histogram, MetricsRegistry


def test_merge_empty_dump_is_identity():
    registry = MetricsRegistry()
    registry.counter("jobs").inc(3)
    registry.histogram("lat").record(1.0)
    before = registry.dump()
    registry.merge_dump({})  # an empty dump contributes nothing
    registry.merge_dump(MetricsRegistry().dump())
    assert registry.dump() == before


def test_merge_into_empty_registry_copies_everything():
    source = MetricsRegistry()
    source.counter("jobs").inc(2)
    source.gauge("util").set(0.5)
    with source.span("wall"):
        pass
    source.histogram("lat").record(0.25)
    target = MetricsRegistry()
    target.merge_dump(source.dump())
    assert target.dump() == source.dump()


def test_merge_duplicate_keys_accumulate():
    first, second = MetricsRegistry(), MetricsRegistry()
    for registry in (first, second):
        registry.counter("jobs").inc(5)
        registry.histogram("lat").record(1.0)
        registry.histogram("lat").record(3.0)
    first.merge_dump(second.dump())
    dump = first.dump()
    assert dump["counters"]["jobs"] == 10
    assert sorted(dump["histogram_values"]["lat"]) == [1.0, 1.0, 3.0, 3.0]


def test_quantiles_independent_of_merge_order():
    """The sorted-exact-values representation makes p50/p90/p99 a pure
    function of the value multiset, whatever order workers landed in."""
    worker_dumps = []
    for base in (1, 10, 100):
        worker = MetricsRegistry()
        for value in (base, base * 2, base * 3):
            worker.histogram("service.job.seconds").record(float(value))
        worker_dumps.append(worker.dump())

    summaries = []
    for permutation in itertools.permutations(worker_dumps):
        parent = MetricsRegistry()
        for dump in permutation:
            parent.merge_dump(dump)
        summaries.append(
            parent.snapshot()["histograms"]["service.job.seconds"]
        )
    assert all(summary == summaries[0] for summary in summaries)
    assert set(summaries[0]) >= {"p50", "p90", "p99"}


def test_empty_histogram_summary_exports_all_quantiles():
    summary = Histogram().summary()
    assert summary["count"] == 0
    assert summary["p50"] == summary["p90"] == summary["p99"] == 0


def test_profiler_merge_empty_snapshot_is_identity():
    registry = MetricsRegistry(clock=itertools.count(0.0, 1.0).__next__)
    with registry.span("a"):
        pass
    before = registry.dump()
    registry.merge_dump({})
    registry.merge_dump(MetricsRegistry().dump())
    assert registry.dump() == before


def test_profiler_merge_duplicate_span_paths_accumulate():
    def make():
        registry = MetricsRegistry(clock=itertools.count(0.0, 1.0).__next__)
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        return registry

    parent = make()
    parent.merge_dump(make().dump())
    spans = parent.snapshot()["spans"]
    assert spans["outer"]["calls"] == 2
    assert spans["outer;inner"]["calls"] == 2
    assert spans["outer"]["cum_seconds"] > spans["outer;inner"]["cum_seconds"]


def test_profiler_merge_order_independent():
    def worker(scale):
        registry = MetricsRegistry(clock=itertools.count(0.0, float(scale)).__next__)
        with registry.span("phase"):
            pass
        registry.counter("ops").inc(scale)
        return registry.dump()

    snapshots = [worker(scale) for scale in (1, 2, 3)]
    results = []
    for permutation in itertools.permutations(snapshots):
        parent = MetricsRegistry()
        for snapshot in permutation:
            parent.merge_dump(snapshot)
        results.append(parent.snapshot())
    assert all(result == results[0] for result in results)
    assert results[0]["counters"]["ops"] == 6
