"""Tests for supervised job execution and graceful shutdown.

Supervision: per-attempt wall-clock timeouts, bounded retries with
backoff for *retryable* failures (worker crashes, transport errors) and
fail-fast for deterministic ones -- retrying a configuration error burns
cycles to fail identically.

Shutdown: a draining server finishes what it admitted, answers new
submissions with 503 + ``Retry-After``, flushes the journal, and a
``repro serve`` process exits 0 on SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from _helpers import TEST_INSTRUCTIONS, subprocess_env

from repro.common.errors import (
    ConfigurationError,
    JobTimeoutError,
    ServiceError,
    WorkerCrashError,
)
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager, JobStatus, is_retryable
from repro.service.journal import journal_path
from repro.service.server import ReproService, ServiceConfig
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

WAIT_TIMEOUT = 120.0


def _request(seed: int) -> JobRequest:
    case = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, seed)
    return JobRequest(cases=(case,))


def _drive(manager: JobManager, request: JobRequest):
    """Run the manager's workers until ``request`` reaches a terminal state."""

    async def drive():
        await manager.start()
        try:
            state, _ = manager.submit(request)
            deadline = time.monotonic() + WAIT_TIMEOUT
            while state.status not in (JobStatus.COMPLETED, JobStatus.FAILED):
                assert time.monotonic() < deadline, "job never finished"
                await asyncio.sleep(0.02)
            return state
        finally:
            await manager.stop()

    return asyncio.run(drive())


# ----------------------------------------------------------------------
# Retry classification
# ----------------------------------------------------------------------


def test_is_retryable_classification() -> None:
    assert is_retryable(WorkerCrashError("pool died"))
    assert is_retryable(ConnectionError("reset"))
    assert is_retryable(BrokenPipeError())
    assert is_retryable(EOFError())
    assert is_retryable(OSError("io"))
    # Deterministic repro errors re-fail identically: never retried.
    assert not is_retryable(ConfigurationError("bad request"))
    assert not is_retryable(JobTimeoutError("too slow"))
    assert not is_retryable(ValueError("bug"))


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


def test_transient_crash_is_retried_to_success() -> None:
    manager = JobManager(queue_limit=8, job_retries=2, retry_backoff_base=0.0)
    calls = {"n": 0}

    def crash_once(state) -> None:
        calls["n"] += 1
        if calls["n"] == 1:
            raise WorkerCrashError("injected transient crash")

    manager.pre_execute = crash_once
    state = _drive(manager, _request(600))
    assert state.status is JobStatus.COMPLETED
    assert state.attempts == 2
    assert manager._retries_total.value == 1
    assert state.view()["attempts"] == 2


def test_retries_exhausted_fails_with_taxonomy_code() -> None:
    manager = JobManager(queue_limit=8, job_retries=1, retry_backoff_base=0.0)

    def always_crash(state) -> None:
        raise WorkerCrashError("injected persistent crash")

    manager.pre_execute = always_crash
    state = _drive(manager, _request(601))
    assert state.status is JobStatus.FAILED
    assert state.error_code == "job_retries_exhausted"
    assert state.attempts == 2
    assert "after 2 attempts" in state.error
    assert manager.stats_document()["totals"]["failed"] == 1


def test_deterministic_failure_is_not_retried() -> None:
    manager = JobManager(queue_limit=8, job_retries=3, retry_backoff_base=0.0)

    def bad_config(state) -> None:
        raise ConfigurationError("deterministically broken")

    manager.pre_execute = bad_config
    state = _drive(manager, _request(602))
    assert state.status is JobStatus.FAILED
    assert state.attempts == 1
    assert manager._retries_total.value == 0


def test_job_timeout_fails_without_retry() -> None:
    manager = JobManager(queue_limit=8, job_timeout=0.2, job_retries=2)

    def stall(state) -> None:
        time.sleep(3.0)

    manager.pre_execute = stall
    state = _drive(manager, _request(603))
    assert state.status is JobStatus.FAILED
    assert state.error_code == "job_timeout"
    assert state.attempts == 1
    assert manager._retries_total.value == 0


def test_zero_timeout_means_unlimited() -> None:
    manager = JobManager(queue_limit=8, job_timeout=0.0)
    assert manager.job_timeout is None
    manager = JobManager(queue_limit=8, job_retries=-5)
    assert manager.job_retries == 0


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _service_with_loop(cache_dir, **overrides):
    """Like test_service.running_service, but also yields the event loop
    (the drain coroutine must be scheduled on the server's own loop)."""
    settings = {"workers": 1, "sim_jobs": 1, "queue_limit": 4, "history_limit": 64}
    settings.update(overrides)
    config = ServiceConfig(
        host="127.0.0.1", port=0, cache_dir=str(cache_dir), **settings
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    service = ReproService(config)
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=10)
    client = ServiceClient(f"http://127.0.0.1:{service.address[1]}", timeout=30.0)
    try:
        yield service, client, loop
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


def test_drain_finishes_inflight_and_rejects_new_submissions(tmp_path) -> None:
    release = threading.Event()
    with _service_with_loop(tmp_path / "cache") as (service, client, loop):
        service.manager.pre_execute = lambda state: release.wait(timeout=30)
        receipt = client.submit(cases=[
            SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, 700)
        ])
        deadline = time.monotonic() + WAIT_TIMEOUT
        while client.status(receipt.job_id)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)

        drained = asyncio.run_coroutine_threadsafe(service.drain(30.0), loop)
        while not service._draining:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        # New submissions bounce with the full refusal contract: HTTP 503,
        # the `draining` taxonomy code, Retry-After as header and body field.
        # (The drain check runs before request parsing, so a bare body works.)
        url = f"http://127.0.0.1:{service.address[1]}/v1/jobs"
        probe = urllib.request.Request(
            url,
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(probe, timeout=10)
        assert info.value.code == 503
        assert info.value.reason == "Service Unavailable"
        assert int(info.value.headers["Retry-After"]) >= 1
        body = json.loads(info.value.read().decode("utf-8"))
        assert body["payload"]["code"] == "draining"
        assert body["payload"]["retry_after"] >= 1

        # The SDK surfaces the refusal as a ServiceError, not a hang.
        with pytest.raises(ServiceError, match="draining"):
            client.submit(cases=[
                SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, 701)
            ])

        # Pollers keep working during the drain.
        assert client.healthz()["draining"] is True

        release.set()
        assert drained.result(timeout=60) is True
        assert client.status(receipt.job_id)["status"] == "completed"

    # The journal recorded the completion before shutdown: nothing to
    # re-queue on the next start.
    journal = journal_path(tmp_path / "cache")
    events = [
        json.loads(line)["event"]
        for line in journal.read_text(encoding="utf-8").splitlines()
    ]
    assert "completed" in events


def test_drain_times_out_but_keeps_unfinished_work_journaled(tmp_path) -> None:
    release = threading.Event()
    with _service_with_loop(tmp_path / "cache") as (service, client, loop):
        service.manager.pre_execute = lambda state: release.wait(timeout=30)
        receipt = client.submit(cases=[
            SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, 710)
        ])
        deadline = time.monotonic() + WAIT_TIMEOUT
        while client.status(receipt.job_id)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        drained = asyncio.run_coroutine_threadsafe(service.drain(0.2), loop)
        assert drained.result(timeout=30) is False
    release.set()
    journal = journal_path(tmp_path / "cache")
    events = [
        json.loads(line)["event"]
        for line in journal.read_text(encoding="utf-8").splitlines()
    ]
    # Admitted and dispatched, but never terminal: the next generation's
    # replay re-queues this job instead of losing it.
    assert "dispatched" in events
    assert "completed" not in events
    assert "failed" not in events


# ----------------------------------------------------------------------
# SIGTERM end-to-end (subprocess)
# ----------------------------------------------------------------------


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _await_healthz(url: str, deadline: float) -> None:
    client = ServiceClient(url, timeout=5.0)
    while True:
        try:
            client.healthz()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigterm_exits_zero_and_leaves_a_flushed_journal(tmp_path) -> None:
    port = _free_port()
    cache_dir = tmp_path / "cache"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--cache-dir",
            str(cache_dir),
            "--drain-timeout",
            "5",
            "--log-level",
            "warning",
        ],
        env=subprocess_env(),
    )
    try:
        _await_healthz(f"http://127.0.0.1:{port}", time.monotonic() + 60)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    journal = journal_path(cache_dir)
    assert journal.exists()
    head = json.loads(journal.read_text(encoding="utf-8").splitlines()[0])
    assert head["event"] == "snapshot"


_MISTYPED_OPERATOR_FILES = {
    # "false" is a string: read as a truth value it would open the roster.
    "tenants": (
        {
            "tenants": {"alpha": {"token": "s3cret"}},
            "default_tenant": "alpha",
            "allow_unknown": "false",
        },
        "allow_unknown: expected bool, got str 'false'",
    ),
    "faults": (
        {"kill_worker": {"rate": 0.5, "max": "3"}},
        "fault site 'kill_worker': max: expected int, got str '3'",
    ),
}


@pytest.mark.parametrize("shards", ["1", "2"])
@pytest.mark.parametrize("option", sorted(_MISTYPED_OPERATOR_FILES))
def test_serve_refuses_mistyped_operator_files_before_serving(tmp_path, option, shards) -> None:
    """A mistyped roster or fault spec is exit status 2 and one error line
    naming the field, before any port is bound or shard spawned."""
    document, message = _MISTYPED_OPERATOR_FILES[option]
    path = tmp_path / f"{option}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(_free_port()),
            "--shards", shards, "--no-cache", f"--{option}", str(path),
        ],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2, completed.stderr
    assert f"repro: error: {message}" in completed.stderr
    assert "Traceback" not in completed.stderr


def test_sharded_serve_exits_nonzero_when_its_shards_cannot_start(tmp_path) -> None:
    """Shards whose peer ports are taken die at start; the supervisor must
    report that with a non-zero exit status, not exit 0."""
    import socket

    taken = []
    try:
        while not taken:
            base_port = _free_port()
            try:
                for index in range(2):
                    sock = socket.socket()
                    taken.append(sock)
                    sock.bind(("127.0.0.1", base_port + 1 + index))
                    sock.listen()
            except OSError:
                for sock in taken:
                    sock.close()
                taken = []
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "--port", str(base_port),
                "--shards", "2", "--no-cache", "--log-level", "warning",
            ],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        for sock in taken:
            sock.close()
    assert completed.returncode == 1, completed.stderr
    assert "shards failed" in completed.stderr


@pytest.mark.parametrize("shards", [1, 2])
def test_serve_on_a_busy_port_is_an_error_line_not_a_traceback(shards) -> None:
    """A taken public port: a lone server exits 2 with one `repro: error:`
    line naming the address; each shard of a group logs one line and the
    supervisor exits 1."""
    import socket

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "--port", str(port),
                "--shards", str(shards), "--no-cache", "--log-level", "warning",
            ],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert "Traceback" not in completed.stderr, completed.stderr
    failures = [line for line in completed.stderr.splitlines() if "cannot listen on" in line]
    if shards == 1:
        assert completed.returncode == 2, completed.stderr
        assert failures == [
            f"repro: error: cannot listen on 127.0.0.1:{port}: Address already in use"
        ], completed.stderr
    else:
        assert completed.returncode == 1, completed.stderr
        assert len(failures) == shards, completed.stderr
        assert "shards failed" in completed.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc layout")
def test_sharded_serve_survives_one_shard_death(tmp_path) -> None:
    """Kill one shard outright: the survivor keeps serving, and SIGTERM on
    the supervisor still exits 0 (a dead child must not wedge shutdown)."""
    base_port = _free_port()
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(base_port),
            "--shards",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--drain-timeout",
            "2",
            "--log-level",
            "warning",
        ],
        env=subprocess_env(),
    )
    shard_urls = [f"http://127.0.0.1:{base_port + 1 + index}" for index in range(2)]
    try:
        deadline = time.monotonic() + 60
        for url in shard_urls:
            _await_healthz(url, deadline)
        children_path = f"/proc/{process.pid}/task/{process.pid}/children"
        with open(children_path, encoding="ascii") as handle:
            children = [int(pid) for pid in handle.read().split()]
        # Spawn-context children include multiprocessing's resource tracker;
        # the shard processes are the ones entered via spawn_main.
        shard_pids = []
        for pid in children:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"resource_tracker" not in handle.read():
                    shard_pids.append(pid)
        assert len(shard_pids) == 2
        import os

        os.kill(shard_pids[0], signal.SIGKILL)
        # At least one shard keeps answering (we do not know which child
        # owned which port, so probe both).
        survivor = None
        deadline = time.monotonic() + 30
        while survivor is None and time.monotonic() < deadline:
            for url in shard_urls:
                try:
                    ServiceClient(url, timeout=5.0).healthz()
                    survivor = url
                    break
                except ServiceError:
                    continue
            time.sleep(0.1)
        assert survivor is not None, "both shards died after killing one"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
