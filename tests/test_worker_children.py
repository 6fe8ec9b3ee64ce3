"""Tests for the service workers' long-lived simulation children.

Each service worker owns one runner whose spawned children run every
simulation.  They must never outlive the server, however it stops; a
timed-out job's child is killed rather than left running, and the
worker's next job runs at once wherever the timed-out attempt was; a
job's progress is its own share of the runner's counters; and the chaos
harness's ``kill_worker`` fault kills a real child, which the supervisor
retries past on fresh children.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from _helpers import TEST_INSTRUCTIONS, subprocess_env
from test_service import WAIT_TIMEOUT, running_service

from repro.common.errors import ServiceError
from repro.exp.request import JobRequest
from repro.exp.runner import ExperimentRunner, SimJob
from repro.faults import FaultInjector, FaultSpec, install
from repro.load.bench import _free_port_block
from repro.service.client import ServiceClient
from repro.service.jobs import JobState
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc layout")


def _children(pid: int):
    """Direct children of ``pid`` (any of its threads may have started one)."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def _descendants(pid: int):
    pending, found = [pid], []
    while pending:
        for child in _children(pending.pop()):
            found.append(child)
            pending.append(child)
    return found


def _alive(pid: int) -> bool:
    """Running or sleeping; a zombie awaiting its reaper is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _simulation_children(pid: int):
    """Live pool children among ``pid``'s descendants: spawned processes
    with no children of their own (not the resource tracker multiprocessing
    starts beside them, nor a shard process)."""
    found = []
    for child in _descendants(pid):
        try:
            command = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"spawn_main" in command and b"resource_tracker" not in command:
            if _alive(child) and not _children(child):
                found.append(child)
    return found


def _wait_dead(pids, seconds: float):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        survivors = [pid for pid in pids if _alive(pid)]
        if not survivors:
            return []
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


def _cases(seed: int):
    return [
        SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, seed) for member in quick_fp_suite()
    ]


def _await_healthz(url: str, deadline: float) -> None:
    client = ServiceClient(url, timeout=5.0)
    while True:
        try:
            client.healthz()
            return
        except ServiceError:
            assert time.monotonic() < deadline, f"{url} never came up"
            time.sleep(0.1)


@pytest.mark.parametrize(
    "shards, stop",
    [(1, signal.SIGKILL), (1, signal.SIGTERM), (2, signal.SIGTERM)],
    ids=["sigkill", "sigterm", "sharded-sigterm"],
)
def test_no_simulation_child_outlives_the_server(tmp_path, shards, stop) -> None:
    base = _free_port_block(shards + 1)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(base),
            "--shards", str(shards), "--sim-jobs", "2", "--cache-dir",
            str(tmp_path / "cache"), "--drain-timeout", "2", "--log-level", "warning",
        ],
        env=subprocess_env(),
    )
    try:
        urls = (
            [f"http://127.0.0.1:{base}"]
            if shards == 1
            else [f"http://127.0.0.1:{base + 1 + index}" for index in range(shards)]
        )
        deadline = time.monotonic() + 60
        for index, url in enumerate(urls):
            _await_healthz(url, deadline)
            view = ServiceClient(url, timeout=60.0).run(cases=_cases(40 + index), timeout=120)
            assert view["progress"]["executed_jobs"] == 2
        children = _simulation_children(process.pid)
        assert len(children) >= 2 * shards, children
        process.send_signal(stop)
        if stop == signal.SIGTERM:
            assert process.wait(timeout=30) == 0
        assert _wait_dead(children, 5.0) == []
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


def test_a_timed_out_job_kills_its_child_and_the_next_job_runs(tmp_path) -> None:
    long_case = SimJob(fmc_hash(), quick_fp_suite().members[0], 400_000, 50)
    with running_service(tmp_path / "cache", job_timeout=1.0) as (svc, client):
        receipt = client.submit(cases=[long_case])
        deadline = time.monotonic() + 30
        busy = []
        while not busy:
            assert time.monotonic() < deadline, "the job never reached a child"
            busy = _simulation_children(os.getpid())
            time.sleep(0.05)
        with pytest.raises(ServiceError, match="timeout"):
            client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
        assert client.status(receipt.job_id)["error_code"] == "job_timeout"
        assert _wait_dead(busy, 5.0) == []

        started = time.monotonic()
        view = client.run(cases=_cases(51)[:1], timeout=WAIT_TIMEOUT)
        assert view["progress"]["executed_jobs"] == 1
        assert time.monotonic() - started < 15.0


def test_a_job_timed_out_outside_a_simulation_frees_its_worker(tmp_path) -> None:
    """The timeout fires while the attempt holds the worker's thread but
    runs no simulation (a figure's reduce, cache I/O; here a stall before
    the runner).  The worker's next job must still run at once, and the
    abandoned attempt, once it goes on, must start no simulation."""
    stalled = _cases(70)[:1]
    release = threading.Event()
    held = []

    def stall(state) -> None:
        if state.request.cases == tuple(stalled):
            held.append(threading.current_thread())
            release.wait(timeout=60)

    with running_service(tmp_path / "cache", job_timeout=2.0) as (svc, client):
        svc.manager.pre_execute = stall
        receipt = client.submit(cases=stalled)
        with pytest.raises(ServiceError, match="timeout"):
            client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
        assert held, "the stalled job never reached its worker's thread"

        started = time.monotonic()
        view = client.run(cases=_cases(71)[:1], timeout=WAIT_TIMEOUT)
        assert view["status"] == "completed"
        assert view["progress"]["executed_jobs"] == 1
        assert time.monotonic() - started < 15.0

        release.set()
        held[0].join(timeout=10)
        assert not held[0].is_alive()
        assert svc.manager.cache.get(stalled[0].key()) is None
        assert client.status(receipt.job_id)["progress"]["executed_jobs"] == 0


def test_a_running_jobs_progress_is_its_share_of_the_runner() -> None:
    """The worker's runner outlives its jobs: a job's progress is what its
    runner counted since the attempt began, live while it runs and frozen
    once it ends."""
    runner = ExperimentRunner()
    runner.executed_jobs, runner.cache_hits = 5, 7  # earlier jobs' work
    state = JobState(
        job_id="job-000001",
        request=JobRequest(cases=tuple(_cases(80)[:1])),
        key="0" * 64,
        submitted_at=time.time(),
    )
    state.track(runner)
    assert state.view()["progress"] == {"executed_jobs": 0, "cache_hits": 0}
    runner.executed_jobs += 1
    runner.cache_hits += 2
    assert state.view()["progress"] == {"executed_jobs": 1, "cache_hits": 2}
    state.settle()
    runner.executed_jobs += 10  # the worker's next job
    assert state.view()["progress"] == {"executed_jobs": 1, "cache_hits": 2}


def test_kill_worker_kills_a_real_child_and_the_retry_succeeds(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (svc, client):
        client.run(cases=_cases(60)[:1], timeout=WAIT_TIMEOUT)
        before = _simulation_children(os.getpid())
        assert before
        injector = FaultInjector(FaultSpec.from_dict({"kill_worker": {"rate": 1.0, "max": 1}}))
        injector.bind_metrics(svc.metrics)
        install(injector)
        try:
            view = client.run(cases=_cases(61)[:1], timeout=WAIT_TIMEOUT)
        finally:
            install(None)
        assert view["status"] == "completed"
        assert view["attempts"] == 2
        assert view["progress"]["executed_jobs"] == 1
        assert injector.counts["kill_worker"] == 1
        assert svc.manager._retries_total.value == 1
        assert _wait_dead(before, 5.0) == []
        assert _simulation_children(os.getpid())
