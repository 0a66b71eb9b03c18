"""Worker-pool fault tolerance and determinism (repro.service.pool)."""

import concurrent.futures
import os
import subprocess
import sys
import threading

import pytest

from repro.experiments.export import to_json
from repro.machine import cydra5
from repro.service.jobs import (
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_TIMEOUT,
    make_jobs,
)
from repro.service.backends import ChunkedProcessBackend, SerialBackend
from repro.service.pool import execute_job
from repro.workloads import paper_corpus

MACHINE = cydra5()


def _corpus(n):
    return paper_corpus(n)


def test_serial_path_preserves_order_and_statuses():
    jobs = make_jobs(_corpus(5))
    results, stats = SerialBackend().run(jobs, MACHINE)
    assert [r.index for r in results] == [0, 1, 2, 3, 4]
    assert all(r.status == JOB_OK and r.metrics is not None for r in results)
    assert stats.fallback_serial and stats.ok == 5


def test_parallel_matches_serial_byte_for_byte():
    programs = _corpus(8)
    serial, _ = SerialBackend().run(make_jobs(programs), MACHINE)
    parallel, stats = ChunkedProcessBackend(4).run(make_jobs(programs), MACHINE)
    assert not stats.fallback_serial
    serial_json = to_json([r.metrics for r in serial], drop_timings=True)
    parallel_json = to_json([r.metrics for r in parallel], drop_timings=True)
    assert serial_json == parallel_json


def test_timeout_reported_without_losing_batch():
    jobs = make_jobs(_corpus(4), faults={1: "hang:30"})
    results, stats = ChunkedProcessBackend(2).run(jobs, MACHINE, timeout=1.0)
    assert results[1].status == JOB_TIMEOUT
    assert "budget" in results[1].error
    others = [r for r in results if r.index != 1]
    assert all(r.status == JOB_OK for r in others)
    assert stats.timeouts == 1 and stats.ok == 3


def test_crash_quarantined_others_survive():
    jobs = make_jobs(_corpus(4), faults={2: "crash"})
    results, stats = ChunkedProcessBackend(2).run(
        jobs, MACHINE, timeout=20.0, max_retries=1, backoff=0.01
    )
    assert results[2].status == JOB_CRASHED
    assert "worker died" in results[2].error
    others = [r for r in results if r.index != 2]
    assert all(r.status == JOB_OK for r in others)
    assert stats.crashes == 1 and stats.ok == 3
    assert stats.rebuilds >= 1
    assert results[2].retries == 1  # bounded resubmissions, then gave up


def test_one_job_budget_binds_off_the_main_thread():
    # A server request thread cannot arm SIGALRM, so even a one-job
    # batch must run in a worker process for its budget to bind.
    from repro.service.batch import run_batch

    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(
            run_batch(_corpus(1), MACHINE, jobs=2, timeout=0.5, faults={0: "hang:5"})
        )
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [r.status for r in reports[0].results] == [JOB_TIMEOUT]
    assert not reports[0].pool.fallback_serial


def test_raise_is_failed_not_crashed():
    jobs = make_jobs(_corpus(3), faults={0: "raise"})
    results, stats = ChunkedProcessBackend(2).run(jobs, MACHINE, timeout=20.0)
    assert results[0].status == JOB_FAILED
    assert "injected fault" in results[0].error
    assert stats.failed == 1 and stats.ok == 2


def test_unavailable_pool_degrades_to_serial(monkeypatch):
    def _refuse(*args, **kwargs):
        raise OSError("no subprocess support here")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _refuse
    )
    jobs = make_jobs(_corpus(3))
    results, stats = ChunkedProcessBackend(4).run(jobs, MACHINE)
    assert stats.fallback_serial
    assert all(r.status == JOB_OK for r in results)


def test_execute_job_never_raises_on_bad_program():
    jobs = make_jobs([object()])  # not a loop at all
    result = execute_job(jobs[0], MACHINE)
    assert result.status == JOB_FAILED and result.error


def test_batch_runs_under_faulthandler():
    # Under -X faulthandler (and -X dev) signal.getsignal() reports None
    # for the fatal signals, a value signal.signal() rejects: execute_job
    # must leave those handlers alone rather than raise TypeError.
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-X", "faulthandler", "-m", "repro", "batch",
        "--corpus", "4", "--no-cache", "--no-progress",
    ]
    result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "batch: 4 loops  ok=4" in result.stdout


def test_in_process_timeout_via_sigalrm():
    pytest.importorskip("signal")
    jobs = make_jobs(_corpus(1), faults={0: "hang:30"})
    result = execute_job(jobs[0], MACHINE, timeout=0.2)
    assert result.status == JOB_TIMEOUT
    assert result.seconds < 5.0


# ----------------------------------------------------------------------
# Flight recorder: failures carry their last scheduler decisions
# ----------------------------------------------------------------------
def test_failed_job_carries_flight_dump():
    jobs = make_jobs(_corpus(1), faults={0: "raise"})
    result = execute_job(jobs[0], MACHINE)
    assert result.status == JOB_FAILED
    assert result.flight, "a failed job must carry its ring"
    assert result.flight[0]["kind"] == "job_start"
    assert result.flight[0]["loop"] == result.name


def test_ok_job_carries_no_flight_dump():
    jobs = make_jobs(_corpus(1))
    result = execute_job(jobs[0], MACHINE)
    assert result.status == JOB_OK and result.flight is None


def test_timeout_carries_flight_dump_of_real_decisions():
    pytest.importorskip("signal")
    jobs = make_jobs(_corpus(1), faults={0: "hang:30"})
    result = execute_job(jobs[0], MACHINE, timeout=0.2)
    assert result.status == JOB_TIMEOUT
    assert result.flight and result.flight[0]["kind"] == "job_start"


def test_flight_events_zero_disables_the_ring():
    jobs = make_jobs(_corpus(1), faults={0: "raise"})
    result = execute_job(jobs[0], MACHINE, flight_events=0)
    assert result.status == JOB_FAILED and result.flight is None


def test_flight_ring_is_bounded():
    jobs = make_jobs(_corpus(1), faults={0: "raise"})
    result = execute_job(jobs[0], MACHINE, flight_events=4)
    assert result.flight is not None and len(result.flight) <= 4


def test_crashed_worker_spills_and_parent_attaches(tmp_path):
    # The synthetic SIGSEGV lets the worker's signal handler spill the
    # ring to flight_dir before dying; quarantine reads it back.
    jobs = make_jobs(_corpus(4), faults={2: "crash"})
    results, stats = ChunkedProcessBackend(2).run(
        jobs,
        MACHINE,
        timeout=20.0,
        max_retries=1,
        backoff=0.01,
        flight_dir=str(tmp_path),
    )
    assert results[2].status == JOB_CRASHED
    assert results[2].flight, "crash dump must survive the worker's death"
    kinds = [record["kind"] for record in results[2].flight]
    assert "job_start" in kinds
    assert all(r.flight is None for r in results if r.index != 2)


def test_crashed_job_postmortem_renders_via_explain(tmp_path):
    from repro.obs import flight_postmortem

    jobs = make_jobs(_corpus(3), faults={1: "crash"})
    results, _ = ChunkedProcessBackend(2).run(
        jobs,
        MACHINE,
        timeout=20.0,
        max_retries=1,
        backoff=0.01,
        flight_dir=str(tmp_path),
    )
    crashed = results[1]
    assert crashed.status == JOB_CRASHED
    text = flight_postmortem(
        crashed.name, crashed.flight, status=crashed.status, error=crashed.error
    )
    assert f"=== post-mortem: {crashed.name} ===" in text
    assert "job_start" in text
    assert "worker died" in text


def test_flight_postmortem_reports_empty_ring():
    from repro.obs import flight_postmortem

    text = flight_postmortem("lonely", None, status=JOB_CRASHED)
    assert "post-mortem: lonely" in text
    assert "flight recorder: empty" in text
