"""Regression tests for the PR-8 job-lifecycle bugfixes.

Three bugs, three tests, each of which fails on the pre-fix code:

* ``JobManager._trim_history`` counted *all* jobs (queued included) against
  the history limit and evicted in dict-insertion order, so a backlog
  evicted recently finished jobs -- pollers saw "unknown job" for work that
  had succeeded.
* ``ServiceClient.wait`` had no fallback when the job aged out of the
  bounded history between two polls; the receipt's request key now resolves
  the payload via ``GET /v1/results/{key}``.
* Durations (queue wait, service time, elapsed, uptime) were computed from
  the wall clock, so an NTP step produced negative latency samples; they
  now come from ``time.monotonic()`` while ``submitted_at`` stays
  wall-clock in the wire form.
"""

from __future__ import annotations

import asyncio
import time as real_time

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED

from repro.common.errors import JobNotFoundError
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.service.jobs import JobManager, JobStatus
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

from test_service import running_service

WAIT_TIMEOUT = 120.0


def _request(seed: int) -> JobRequest:
    """A small batch request with a seed-distinct content address."""
    case = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, seed)
    return JobRequest(cases=(case,))


def _submit_queued(manager: JobManager, count: int, start_seed: int = 100):
    """Submit ``count`` distinct requests; no workers run, so all stay queued."""
    return [manager.submit(_request(start_seed + index))[0] for index in range(count)]


# ----------------------------------------------------------------------
# Bug 1: history trimming under a backlog
# ----------------------------------------------------------------------


def test_trim_history_ignores_queued_jobs() -> None:
    """A backlog of queued jobs must never force finished ones out.

    The pre-fix trim computed the excess over *every* job in the store
    (queued included), so a backlog of five with two finished jobs and a
    history limit of two evicted both finished jobs -- their pollers then
    saw "unknown job" for work that had succeeded.
    """
    manager = JobManager(queue_limit=100, history_limit=2)
    states = _submit_queued(manager, 5)
    for position, state in enumerate(states[:2]):
        state.status = JobStatus.COMPLETED
        state.finished_monotonic = float(position)
    manager._trim_history()
    # Two finished jobs fit the limit of two exactly: the queued backlog
    # must not count against them.
    assert set(manager.jobs) == {state.job_id for state in states}


def test_trim_history_evicts_by_completion_time() -> None:
    """Eviction counts only finished jobs and drops the oldest *completion*.

    The first-submitted job finishes last: it is the newest history and
    must survive, while the earliest completions go.  The pre-fix code
    evicted by dict-insertion order, which would have dropped it first.
    """
    manager = JobManager(queue_limit=100, history_limit=2)
    states = _submit_queued(manager, 4)
    # Finish jobs 1..3 in submission order, then job 0 last of all.
    for position, state in enumerate(states[1:], start=1):
        state.status = JobStatus.COMPLETED
        state.finished_monotonic = float(position)
    states[0].status = JobStatus.COMPLETED
    states[0].finished_monotonic = 10.0
    manager._trim_history()
    survivors = set(manager.jobs)
    # Limit 2 over 4 finished jobs: the two oldest completions (states 1
    # and 2) are evicted; the early submission that finished last stays.
    assert states[0].job_id in survivors
    assert states[3].job_id in survivors
    assert states[1].job_id not in survivors
    assert states[2].job_id not in survivors


# ----------------------------------------------------------------------
# Bug 2: wait() surviving a history trim via the request key
# ----------------------------------------------------------------------


def test_wait_resolves_trimmed_job_via_request_key(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (svc, client):
        receipt = client.submit(
            cases=[
                SimJob(
                    fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED
                )
            ]
        )
        completed = client.wait(
            receipt.job_id, timeout=WAIT_TIMEOUT, request_key=receipt.request_key
        )
        assert completed["status"] == "completed"
        # Simulate the job aging out of the bounded history between polls.
        del svc.manager.jobs[receipt.job_id]
        # Without the request key the 404 is terminal...
        with pytest.raises(JobNotFoundError):
            client.wait(receipt.job_id, timeout=5.0)
        # ...but the receipt's key resolves the payload that the manager
        # retained past the trim, as a synthesized completed view.
        view = client.wait(
            receipt.job_id, timeout=WAIT_TIMEOUT, request_key=receipt.request_key
        )
        assert view["status"] == "completed"
        assert view["trimmed"] is True
        assert view["request_key"] == receipt.request_key
        assert view["result"] == completed["result"]


def test_manager_retains_results_past_history_trim() -> None:
    """The manager-level half of trim survival: ``result_for`` serves a
    finished request's payload even after its job left the store."""
    manager = JobManager(queue_limit=100, history_limit=4)
    (state,) = _submit_queued(manager, 1)
    state.status = JobStatus.COMPLETED
    state.result = {"answer": 42}
    state.finished_monotonic = 1.0
    manager._remember_result(state)
    del manager.jobs[state.job_id]
    assert manager.result_for(state.key) == {"answer": 42}
    # Malformed keys (anything but 64 hex digits) never hit the store.
    assert manager.result_for("../../etc/passwd") is None


# ----------------------------------------------------------------------
# Bug 3: durations from the monotonic clock
# ----------------------------------------------------------------------


class _SteppingClock:
    """A wall clock that steps one hour backwards on every read (an NTP
    correction caricature); the monotonic clock passes through."""

    def __init__(self) -> None:
        self._offset = 0.0

    def time(self) -> float:
        value = real_time.time() - self._offset
        self._offset += 3600.0
        return value

    def monotonic(self) -> float:
        return real_time.monotonic()


def test_durations_survive_wall_clock_steps(monkeypatch) -> None:
    """Queue wait, service time, elapsed and uptime must stay non-negative
    while the wall clock steps backwards between every read.

    Pre-fix, these were wall-clock differences and would come out around
    minus one hour per intervening read.
    """
    monkeypatch.setattr("repro.service.jobs.time", _SteppingClock())

    async def drive():
        manager = JobManager(workers=1, queue_limit=4, history_limit=8)
        await manager.start()
        state, _ = manager.submit(_request(TEST_SEED))
        deadline = real_time.monotonic() + WAIT_TIMEOUT
        while state.status not in (JobStatus.COMPLETED, JobStatus.FAILED):
            assert real_time.monotonic() < deadline, "job never finished"
            await asyncio.sleep(0.01)
        await manager.stop()
        return manager, state

    manager, state = asyncio.run(drive())
    assert state.status is JobStatus.COMPLETED
    # The wire form keeps wall-clock timestamps (stepped here, by design of
    # the fake), but every *duration* is monotonic and non-negative.
    view = state.view()
    assert view["elapsed_seconds"] >= 0.0
    assert state.started_monotonic >= state.submitted_monotonic
    assert state.finished_monotonic >= state.started_monotonic
    assert manager.uptime_seconds() >= 0.0
    accounting = manager.scheduler.accounting(state.tenant)
    queue_wait = accounting.queue_wait.snapshot()
    service_time = accounting.service_time.snapshot()
    assert queue_wait["count"] == 1
    assert queue_wait["mean"] >= 0.0
    assert service_time["count"] == 1
    assert service_time["mean"] >= 0.0
    assert accounting.service_time.min >= 0.0
    # Retry-After hints are derived from the recorded service times and
    # must stay in their documented [1, 60] clamp.
    assert 1 <= manager.retry_after_hint(3) <= 60
