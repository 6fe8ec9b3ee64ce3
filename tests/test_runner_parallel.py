"""Tests for the fixed parallel dispatch of :class:`ExperimentRunner`.

The historical failure mode (BENCH_pr1: parallel fig7 at 0.83x of serial)
had three causes: a fresh pool per batch, one pickled task per job, and
oversubscription on small hosts.  These tests pin the fixes:

* worker count is capped at the available CPUs, and a single effective
  worker runs inline (no pool at all),
* parallel execution returns bit-identical results to serial execution,
  under both the fork and the spawn start method, and writes nothing to
  stderr,
* the pool is reused across batches and torn down by ``close()``, and
* on a synthetic slow job (sleep-based, so concurrency is real even on a
  single-CPU host) the pool actually delivers wall-clock speedup.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED, subprocess_env

import repro.exp.runner as runner_module
from repro.exp.runner import ExperimentRunner, SimJob
from repro.sim.configs import fmc_hash, ooo_64
from repro.uarch.result import CoreResult
from repro.workloads.suite import quick_fp_suite, quick_int_suite

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


@needs_fork
def test_pool_tasks_record_no_spans_unless_the_parent_records(monkeypatch):
    """A pool task records spans only when the parent was recording as it
    dispatched the batch; its phase seconds come back either way."""
    from repro.common import phases
    from repro.obs import spans

    assert not spans.recording()
    shipped = []
    monkeypatch.setattr(spans, "merge", lambda entries: shipped.append(list(entries)))
    monkeypatch.setattr(runner_module, "available_cpus", lambda: 2)
    drive_before = phases.snapshot().get("drive", 0.0)
    with ExperimentRunner(jobs=2, start_method="fork") as runner:
        runner.run_batch(_jobs(4))
    assert shipped == [[], [], [], []]
    assert phases.snapshot().get("drive", 0.0) > drive_before


#: Two parallel batches with disjoint workloads on one two-worker pool: the
#: quick FP suite, then the quick INT suite, so no worker has generated the
#: second batch's traces.  ``_two_batches`` below builds the same jobs.
_TWO_BATCH_SCRIPT = f"""
import json, sys
import repro.exp.runner as runner_module
from repro.exp.runner import ExperimentRunner, SimJob
from repro.sim.configs import fmc_hash, ooo_64
from repro.workloads.suite import quick_fp_suite, quick_int_suite
runner_module.available_cpus = lambda: 2
batches = [
    [SimJob(machine, member, 3_000, {TEST_SEED}) for machine in (ooo_64(), fmc_hash())
     for member in suite]
    for suite in (quick_fp_suite(), quick_int_suite())
]
with ExperimentRunner(jobs=2, start_method=sys.argv[1]) as runner:
    results = [runner.run_batch(batch) for batch in batches]
print(json.dumps([{{key: r.to_dict() for key, r in batch.items()}} for batch in results]))
"""


def _two_batches():
    machines = (ooo_64(), fmc_hash())
    return [
        [SimJob(machine, member, 3_000, TEST_SEED) for machine in machines for member in suite]
        for suite in (quick_fp_suite(), quick_int_suite())
    ]


@pytest.mark.parametrize(
    "start_method",
    [
        pytest.param(
            "fork", marks=pytest.mark.skipif(not FORK_AVAILABLE, reason="no fork start method")
        ),
        "spawn",
    ],
)
def test_parallel_batches_write_nothing_to_stderr(start_method):
    """A fresh interpreter, so a fresh resource tracker, runs two parallel
    batches.  It must exit cleanly, print nothing to stderr, and return the
    serial runner's results bit-for-bit."""
    completed = subprocess.run(
        [sys.executable, "-c", _TWO_BATCH_SCRIPT, start_method],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    parallel = json.loads(completed.stdout)
    serial = ExperimentRunner(jobs=1)
    for batch, shipped in zip(_two_batches(), parallel, strict=True):
        expected = serial.run_batch(batch)
        assert {key: CoreResult.from_dict(doc) for key, doc in shipped.items()} == expected
