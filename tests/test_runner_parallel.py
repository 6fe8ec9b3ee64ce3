"""Tests for the fixed parallel dispatch of :class:`ExperimentRunner`.

The historical failure mode (BENCH_pr1: parallel fig7 at 0.83x of serial)
had three causes: a fresh pool per batch, one pickled task per job, and
oversubscription on small hosts.  These tests pin the fixes:

* worker count is capped at the available CPUs, and a single effective
  worker runs inline (no pool at all),
* parallel execution returns bit-identical results to serial execution,
* the pool is reused across batches and torn down by ``close()``, and
* on a synthetic slow job (sleep-based, so concurrency is real even on a
  single-CPU host) the pool actually delivers wall-clock speedup.
"""

from __future__ import annotations

import multiprocessing
import sys
import time

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED

import repro.exp.runner as runner_module
from repro.exp.runner import ExperimentRunner, SimJob
from repro.sim.configs import fmc_hash, ooo_64
from repro.uarch.result import CoreResult
from repro.workloads.suite import quick_int_suite

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="monkeypatched workers need the fork start method"
)


def _jobs(count: int = 4):
    suite = quick_int_suite()
    machines = (ooo_64(), fmc_hash())
    members = list(suite)
    return [
        SimJob(machines[i % 2], members[i % len(members)], TEST_INSTRUCTIONS, TEST_SEED + i)
        for i in range(count)
    ]


def test_effective_workers_capped_at_available_cpus(monkeypatch):
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    assert ExperimentRunner(jobs=8).effective_workers() == 2
    assert ExperimentRunner(jobs=1).effective_workers() == 1


def test_single_effective_worker_runs_inline(monkeypatch):
    """With one usable CPU no pool is ever created -- no fork overhead."""
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 1)
    with ExperimentRunner(jobs=8) as runner:
        results = runner.run_batch(_jobs(3))
        assert len(results) == 3
        assert runner._pool is None


@needs_fork
def test_parallel_results_bit_identical_to_serial(monkeypatch):
    jobs = _jobs(4)
    serial = ExperimentRunner(jobs=1).run_batch(jobs)
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    with ExperimentRunner(jobs=2, start_method="fork") as parallel_runner:
        parallel = parallel_runner.run_batch(jobs)
        assert parallel_runner._pool is not None
    assert serial.keys() == parallel.keys()
    for key, result in serial.items():
        assert parallel[key] == result


@needs_fork
def test_pool_is_reused_across_batches_and_closed(monkeypatch):
    """One pool serves batches of different sizes -- including batches
    smaller than the worker cap, which must not trigger a re-fork."""
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 3)
    runner = ExperimentRunner(jobs=3, start_method="fork")
    try:
        runner.run_batch(_jobs(4))
        first_pool = runner._pool
        assert first_pool is not None
        # A batch smaller than the worker cap reuses the same (full) pool.
        runner.run_batch(_jobs(6)[4:])
        assert runner._pool is first_pool
    finally:
        runner.close()
    assert runner._pool is None
    # close() is idempotent.
    runner.close()


def _sleeping_run_job(job: SimJob) -> CoreResult:
    time.sleep(0.25)
    from repro.common.stats import StatsRegistry

    return CoreResult(
        trace_name=job.workload.name,
        config_name=job.machine.name,
        cycles=1,
        committed_instructions=0,
        stats=StatsRegistry().snapshot(),
    )


@needs_fork
@pytest.mark.skipif(sys.platform == "win32", reason="fork-only test")
def test_synthetic_slow_job_sees_parallel_speedup(monkeypatch):
    """Sleep-based jobs overlap even on one CPU: the pool must deliver > 1x.

    A forked worker inherits the monkeypatched ``run_job``, so each job
    sleeps 0.25s wherever it executes.  Four jobs serial therefore take
    >= 1s; across 4 workers they must take well under that -- this is the
    regression test for the dispatch overhead that used to make parallel
    runs slower than serial ones.
    """
    monkeypatch.setattr(runner_module, "run_job", _sleeping_run_job)
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 4)
    jobs = _jobs(4)

    started = time.perf_counter()
    serial = ExperimentRunner(jobs=1).run_batch(jobs)
    serial_seconds = time.perf_counter() - started

    with ExperimentRunner(jobs=4, start_method="fork") as runner:
        started = time.perf_counter()
        parallel = runner.run_batch(jobs)
        parallel_seconds = time.perf_counter() - started

    assert serial.keys() == parallel.keys()
    assert serial_seconds >= 1.0
    assert parallel_seconds < serial_seconds
    speedup = serial_seconds / parallel_seconds
    assert speedup > 1.5, f"pool dispatch overhead ate the speedup ({speedup:.2f}x)"


@needs_fork
def test_shared_memory_handoff_matches_serial(monkeypatch):
    """Traces shipped to workers as shared-memory columnar bytes simulate
    bit-identically to inline (regenerate-in-process) execution."""
    jobs = _jobs(4)
    serial = ExperimentRunner(jobs=1).run_batch(jobs)
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    with ExperimentRunner(jobs=2, start_method="fork") as runner:
        parallel = runner.run_batch(jobs)
    assert serial.keys() == parallel.keys()
    for key, result in serial.items():
        assert parallel[key] == result


@needs_fork
def test_pickled_bytes_fallback_matches_serial(monkeypatch):
    """Without shared memory the runner ships container bytes through the
    task pickle instead; results stay bit-identical."""
    jobs = _jobs(4)
    serial = ExperimentRunner(jobs=1).run_batch(jobs)
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    monkeypatch.setattr(runner_module, "_shm_enabled", lambda: False)
    with ExperimentRunner(jobs=2, start_method="fork") as runner:
        parallel = runner.run_batch(jobs)
    for key, result in serial.items():
        assert parallel[key] == result


def test_shipped_payload_preempts_worker_generation(monkeypatch):
    """A worker receiving a trace payload must not regenerate the stream."""
    captured = {}

    def _forbid_generation(*_args, **_kwargs):
        raise AssertionError("worker regenerated a shipped trace")

    class _FakePool:
        def map(self, func, iterable, chunksize=None):
            captured["tasks"] = list(iterable)
            # Payloads are fully built by now: from here on, any generation
            # call means the handoff was dropped on the floor.
            monkeypatch.setattr(runner_module, "generate_member_trace", _forbid_generation)
            results = []
            for task in iterable:
                runner_module.clear_trace_memo()  # simulate a cold worker
                results.append(func(task))
            return results

    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    runner = ExperimentRunner(jobs=2)
    monkeypatch.setattr(runner, "_ensure_pool", lambda workers: _FakePool())
    jobs = _jobs(4)
    expected = ExperimentRunner(jobs=1).run_batch(jobs)
    results = runner.run_batch(jobs)
    assert {task.payload[0] for task in captured["tasks"]} <= {"shm", "bytes"}
    for key, result in expected.items():
        assert results[key] == result
    runner_module.clear_trace_memo()


def test_failed_shm_attach_closes_the_segment(monkeypatch):
    """A segment that attaches but does not parse must be unmapped, not
    leaked: nothing else ever learns about it in a long-lived worker."""
    from multiprocessing import shared_memory

    from repro.common.errors import TraceError

    created = {}
    real_cls = shared_memory.SharedMemory

    class _Tracking(real_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created["segment"] = self

    garbage = real_cls(create=True, size=32)  # not a trace container
    try:
        monkeypatch.setattr(shared_memory, "SharedMemory", _Tracking)
        ledger_before = len(runner_module._ATTACHED_SEGMENTS)
        with pytest.raises(TraceError):
            runner_module._attach_shipped_trace(("shm", garbage.name))
        attached = created["segment"]
        # Either the mapping closed outright, or (when the in-flight
        # traceback still pinned buffer views) it was parked on the sweep
        # ledger with a dead ref; the next sweep must then reclaim it.
        runner_module._sweep_attached_segments()
        assert attached._mmap is None  # unmapped either way
        assert len(runner_module._ATTACHED_SEGMENTS) <= ledger_before
        assert all(seg is not attached for _ref, seg in runner_module._ATTACHED_SEGMENTS)
    finally:
        monkeypatch.undo()
        # _attach_shipped_trace unregistered the name from the resource
        # tracker (the parent normally owns cleanup); re-register so this
        # test's own unlink() keeps the tracker's books balanced.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(garbage._name, "shared_memory")
        except Exception:
            pass
        garbage.close()
        garbage.unlink()


@needs_fork
def test_chunked_dispatch_groups_jobs_by_workload(monkeypatch):
    """The batch is sorted by workload before chunking (trace reuse per worker)."""
    captured = {}

    class _FakePool:
        def map(self, func, iterable, chunksize=None):
            captured["order"] = list(iterable)
            captured["chunksize"] = chunksize
            return [func(job) for job in iterable]

    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    runner = ExperimentRunner(jobs=2)
    monkeypatch.setattr(runner, "_ensure_pool", lambda workers: _FakePool())
    jobs = _jobs(6)
    runner.run_batch(jobs)
    names = [job.workload.name for job in captured["order"]]
    assert names == sorted(names)
    assert captured["chunksize"] == 3
