"""The job runner behind run_batch: determinism, chunking, heterogeneity."""

import pytest

from repro.experiments.export import to_json
from repro.machine import cydra5
from repro.service import pool
from repro.service.batch import run_batch
from repro.workloads import paper_corpus

MACHINE = cydra5()
N = 6


def _corpus_json(backend, expect_chunks=None):
    report = run_batch(paper_corpus(N), MACHINE, backend=backend, jobs=2)
    assert report.ok
    assert [r.index for r in report.results] == list(range(N))
    if expect_chunks is not None:
        assert report.pool.chunks == expect_chunks
    return to_json(report.loop_metrics, drop_timings=True)


@pytest.mark.parametrize(
    "chunks_per_worker, chunk_size",
    [
        pytest.param(4, 1, id="1"),
        pytest.param(1, 3, id="3"),
        pytest.param(0.5, N, id=str(N)),
    ],
)
def test_every_chunk_size_matches_serial(monkeypatch, chunks_per_worker, chunk_size):
    """The parity contract: where a job runs changes wall-clock, nothing else."""
    baseline = _corpus_json("serial")
    monkeypatch.setattr(pool, "CHUNKS_PER_WORKER", chunks_per_worker)
    assert _corpus_json("chunked", expect_chunks=N // chunk_size) == baseline


def test_backend_names_route_through_run_batch():
    baseline = _corpus_json("serial")
    assert _corpus_json("chunked") == baseline
    assert _corpus_json("auto") == baseline


def test_chunked_reports_backend_and_chunks():
    report = run_batch(paper_corpus(N), MACHINE, jobs=2)
    assert report.pool.backend == "chunked"
    assert report.pool.chunks == N  # ceil(6 / (2 workers x 4)): one job a chunk
    assert f"chunked x2 workers ({N} chunks)" in report.summary()


def test_serial_backend_used_at_jobs_1():
    report = run_batch(paper_corpus(2), MACHINE, jobs=1)
    assert report.pool.backend == "serial"
    assert report.pool.fallback_serial


def test_backend_names_pick_the_worker_count():
    for name, jobs, workers, label in [
        ("auto", 1, 1, "serial"),
        ("auto", 2, 2, "chunked"),
        ("serial", 2, 1, "serial"),
        ("chunked", 2, 2, "chunked"),
        ("chunked", 1, 1, "serial"),
    ]:
        report = run_batch(paper_corpus(1), MACHINE, backend=name, jobs=jobs)
        assert (report.pool.workers, report.pool.backend) == (workers, label)
        assert report.pool.fallback_serial == (workers == 1)
    with pytest.raises(ValueError, match="unknown execution backend 'threads'"):
        run_batch(paper_corpus(1), MACHINE, backend="threads")


def test_fault_in_one_chunk_keeps_order_and_chunkmates(monkeypatch):
    monkeypatch.setattr(pool, "CHUNKS_PER_WORKER", 1)  # two chunks of two
    report = run_batch(
        paper_corpus(4),
        MACHINE,
        jobs=2,
        timeout=30,
        faults={1: "raise"},
    )
    assert report.pool.chunks == 2
    assert [r.index for r in report.results] == [0, 1, 2, 3]
    statuses = [r.status for r in report.results]
    assert statuses == ["ok", "failed", "ok", "ok"]


# ----------------------------------------------------------------------
# Heterogeneous batches (per-job machines)
# ----------------------------------------------------------------------
def test_per_job_machines_through_chunked_backend():
    """One batch, two machines: each job scheduled under its own latency."""
    programs = paper_corpus(6) * 2
    machines = [cydra5(load_latency=2)] * 6 + [cydra5(load_latency=27)] * 6
    report = run_batch(programs, machines=machines, jobs=2)
    assert report.ok
    fast = [m.ii for m in report.loop_metrics[:6]]
    slow = [m.ii for m in report.loop_metrics[6:]]
    # Same loops, higher load latency: II can only get worse, and on a
    # corpus with load recurrences it strictly does somewhere.
    assert all(s >= f for f, s in zip(fast, slow))
    assert slow != fast


def test_heterogeneous_batch_identical_across_backends():
    programs = paper_corpus(3) * 2
    machines = [cydra5(load_latency=2)] * 3 + [cydra5(load_latency=27)] * 3

    def run(backend):
        report = run_batch(
            programs, machines=machines, backend=backend, jobs=2
        )
        return to_json(report.loop_metrics, drop_timings=True)

    baseline = run("serial")
    assert run("chunked") == baseline


def test_heterogeneous_jobs_get_distinct_cache_keys(tmp_path):
    programs = paper_corpus(2) * 2
    machines = [cydra5(load_latency=2)] * 2 + [cydra5(load_latency=27)] * 2
    cold = run_batch(
        programs, machines=machines, jobs=2, cache_dir=str(tmp_path)
    )
    assert cold.cache.misses == 4 and cold.cache.writes == 4
    warm = run_batch(
        programs, machines=machines, jobs=2, cache_dir=str(tmp_path)
    )
    assert warm.cache.hits == 4
    assert to_json(warm.loop_metrics) == to_json(cold.loop_metrics)


def test_run_corpus_sweep_matches_per_machine_runs(tmp_path):
    from repro.experiments import run_corpus, run_corpus_sweep

    programs = paper_corpus(3)
    machines = [cydra5(load_latency=latency) for latency in (2, 13, 27)]
    swept = run_corpus_sweep(
        programs, machines, jobs=2, cache_dir=str(tmp_path / "cache")
    )
    assert len(swept) == len(machines)
    for machine, metrics in zip(machines, swept):
        expected = run_corpus(programs, machine)
        assert to_json(metrics, drop_timings=True) == to_json(
            expected, drop_timings=True
        )


def test_cli_sweep_load_latency(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    out = str(tmp_path / "sweep.json")
    assert batch_main(
        [
            "--corpus", "6",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--sweep-machine", "cydra5:load_latency=2",
            "--sweep-machine", "cydra5:load_latency=27",
            "--out", out,
        ]
    ) == 0
    text = capsys.readouterr().out
    assert "batch: 12 loops  ok=12" in text
    assert "cache: 0 hits, 12 misses" in text  # distinct key per latency
    import json

    with open(out) as handle:
        records = json.load(handle)
    names = [record["name"] for record in records]
    assert names[:6] == names[6:]  # same corpus, latency-major order
    assert [r["ii"] for r in records[:6]] != [r["ii"] for r in records[6:]]


def test_cli_machine_flag_selects_registry_target(tmp_path, capsys):
    import json

    from repro.experiments import run_corpus
    from repro.machine import build_machine
    from repro.service.batch_cli import batch_main
    from repro.workloads import paper_corpus

    out = str(tmp_path / "wide.json")
    assert batch_main(
        ["--corpus", "4", "--no-cache", "--machine", "vliw-wide:issue=4",
         "--out", out]
    ) == 0
    with open(out) as handle:
        records = json.load(handle)
    expected = run_corpus(paper_corpus(4), build_machine("vliw-wide", issue=4))
    assert [r["ii"] for r in records] == [m.ii for m in expected]


def test_cli_sweep_machine_grid(tmp_path, capsys):
    import json

    from repro.service.batch_cli import batch_main

    out = str(tmp_path / "zoo.json")
    assert batch_main(
        [
            "--corpus", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--sweep-machine", "cydra5",
            "--sweep-machine", "vliw-wide",
            "--out", out,
        ]
    ) == 0
    text = capsys.readouterr().out
    assert "batch: 10 loops  ok=10" in text
    assert "cache: 0 hits, 10 misses" in text  # distinct key per machine
    with open(out) as handle:
        records = json.load(handle)
    names = [record["name"] for record in records]
    assert names[:5] == names[5:]  # same corpus, machine-major order


def test_cli_sweep_machine_conflicts_and_bad_names(capsys):
    from repro.service.batch_cli import batch_main

    assert batch_main(
        ["--corpus", "2", "--no-cache", "--sweep-machine", "tms320"]
    ) == 2
    assert "unknown machine" in capsys.readouterr().err
    assert batch_main(
        ["--corpus", "2", "--no-cache", "--machine", "gpu:occupancy=99"]
    ) == 2
    assert "occupancy must be in 1..32" in capsys.readouterr().err
