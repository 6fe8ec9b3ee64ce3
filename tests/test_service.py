"""Tests for the simulation service (repro.service).

Covers the ISSUE's acceptance surface: submit/status/result round trips that
are bit-identical to the local experiment path, coalescing of identical
concurrent submissions (the simulation runs exactly once), warm-cache
re-submissions that execute zero simulations, 429 under a full queue, and
the wire schema itself (envelopes, request normalisation, validation).

The server runs in-process on an ephemeral port, with its event loop on a
background thread; the blocking client SDK talks to it over real HTTP.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED, status_polls

from repro._version import __version__
from repro.common.errors import ConfigurationError, ServiceError, ServiceOverloadedError
from repro.common.serialize import open_envelope, to_jsonable, wire_envelope
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob, run_job
from repro.service.client import ServiceClient
from repro.service.server import ReproService, ServiceConfig
from repro.sim.configs import fmc_hash, ooo_64
from repro.sim.experiments import campaign_context, experiment_by_name
from repro.workloads.suite import quick_fp_suite

#: Generous bound for one quick-campaign figure on a loaded CI machine.
WAIT_TIMEOUT = 120.0


@contextlib.contextmanager
def running_service(cache_dir, **overrides):
    """Start a ReproService on an ephemeral port; yields (service, client)."""
    settings = {"workers": 1, "sim_jobs": 1, "queue_limit": 2, "history_limit": 64}
    settings.update(overrides)
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=None if cache_dir is None else str(cache_dir),
        **settings,
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    service = ReproService(config)
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=10)
    client = ServiceClient(f"http://127.0.0.1:{service.address[1]}", timeout=30.0)
    try:
        yield service, client
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


@pytest.fixture()
def service(tmp_path):
    with running_service(tmp_path / "cache") as (svc, client):
        yield svc, client


# ----------------------------------------------------------------------
# Health and basic HTTP behaviour
# ----------------------------------------------------------------------


def test_healthz_reports_version_and_limits(service) -> None:
    svc, client = service
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["version"] == __version__
    assert health["workers"] == 1
    assert health["queue_limit"] == 2
    assert health["jobs"]["submitted"] == 0


def test_unknown_endpoint_and_wrong_method(service) -> None:
    svc, client = service
    base = client.base_url
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{base}/v1/nope", timeout=10)
    with excinfo.value as response:
        assert response.code == 404
        payload = open_envelope(json.load(response), "error")
    assert "unknown endpoint" in payload["message"]
    # GET on the submission endpoint is a 405, not a crash.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{base}/v1/jobs", timeout=10)
    with excinfo.value as response:
        assert response.code == 405


def test_header_flood_is_rejected(service) -> None:
    """Unbounded header streams are cut off with a 400, not accumulated."""
    import socket

    svc, client = service
    host, port = svc.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
        try:
            for index in range(500):
                sock.sendall(f"x-flood-{index}: y\r\n".encode())
            sock.sendall(b"\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # server may already have slammed the door mid-flood
        sock.settimeout(10)
        response = b""
        try:
            while chunk := sock.recv(4096):
                response += chunk
        except (ConnectionResetError, TimeoutError):
            pass
    assert b"400" in response.split(b"\r\n", 1)[0]


def test_client_ignores_proxy_environment(service, monkeypatch) -> None:
    """http_proxy env vars must not hijack loopback service traffic."""
    svc, client = service
    monkeypatch.setenv("http_proxy", "http://192.0.2.1:9")  # unreachable by design
    monkeypatch.setenv("HTTP_PROXY", "http://192.0.2.1:9")
    assert client.healthz()["status"] == "ok"


def test_malformed_submission_bodies_are_400(service) -> None:
    svc, client = service

    def post(body: bytes):
        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        return excinfo.value.code, open_envelope(json.load(excinfo.value), "error")

    assert post(b"{ not json")[0] == 400
    assert post(json.dumps({"no": "envelope"}).encode())[0] == 400
    # A valid envelope of an unsupported schema version -- including the
    # retired version 1 -- is rejected loudly, naming the version.
    for version in (999, 1):
        bad = wire_envelope("job_request", JobRequest(figure="fig7").to_dict())
        bad["wire_schema"] = version
        status, error = post(json.dumps(bad).encode())
        assert (status, error["code"]) == (400, "bad_request")
        assert f"unsupported wire schema {version}" in error["message"]
    # Unknown figure names are a client error, not a worker crash.
    envelope = wire_envelope("job_request", {"figure": "fig99"})
    assert post(json.dumps(envelope).encode())[0] == 400
    # So are workload parameters no trace can be drawn from: a negative
    # region weight, all-zero access-size weights, a NaN weight (which JSON
    # parsing accepts) and an access size wider than the trace's 16-bit
    # size column are refused at admission.
    job = SimJob(ooo_64(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    for edit in (
        lambda workload: workload["regions"][0].update(weight=-1.0),
        lambda workload: workload.update(access_sizes=[[8, 0.0], [4, 0.0]]),
        lambda workload: workload["regions"][0].update(weight=float("nan")),
        lambda workload: workload.update(access_sizes=[[65536, 1.0]]),
    ):
        request = JobRequest(cases=(job,)).to_dict()
        edit(request["cases"][0]["workload"])
        status, error = post(json.dumps(wire_envelope("job_request", request)).encode())
        assert (status, error["code"]) == (400, "bad_request"), error["message"]
    # Fields of the wrong JSON type are refused at admission, never coerced:
    # "false" is not false, "7" is not 7 and 1.5 entries are not a queue.
    # So are a case without its machine and one with a negative trace length.
    for edit in (
        lambda case: case.update(num_instructions=-1),
        lambda case: case["machine"]["hierarchy"]["l1"].update(size_bytes="32768"),
        lambda case: case["machine"].update(kind="nonsense"),
        lambda case: case["workload"].update(regions=5),
        lambda case: case.update(num_instructions="1000"),
        lambda case: case["machine"]["core"].update(rob_size=1.5),
        lambda case: case.pop("machine"),
    ):
        request = JobRequest(cases=(job,)).to_dict()
        edit(request["cases"][0])
        status, error = post(json.dumps(wire_envelope("job_request", request)).encode())
        assert (status, error["code"]) == (400, "bad_request"), error["message"]
    for field, value in (
        ("full", "false"),
        ("instructions", "300"),
        ("figure", ["fig7"]),
        ("seed", "7"),
    ):
        request = {**JobRequest(figure="fig7").to_dict(), field: value}
        status, error = post(json.dumps(wire_envelope("job_request", request)).encode())
        assert (status, error["code"]) == (400, "bad_request"), (field, error["message"])
    assert svc.manager.health()["jobs"]["submitted"] == 0


# ----------------------------------------------------------------------
# Submit / status / result round trip
# ----------------------------------------------------------------------


def test_submit_roundtrip_is_bit_identical_to_local_run(service) -> None:
    svc, client = service
    view = client.run(
        figure="sec52", instructions=TEST_INSTRUCTIONS, seed=TEST_SEED, timeout=WAIT_TIMEOUT
    )
    assert view["status"] == "completed"
    assert view["figure"] == "sec52"
    assert view["progress"]["executed_jobs"] > 0
    assert view["progress"]["cache_hits"] == 0
    # The remote result must match the local serial path bit for bit (the
    # CLI's artifact is the same to_jsonable of the same experiment run).
    context = campaign_context(instructions=TEST_INSTRUCTIONS, seed=TEST_SEED)
    result = context.run(experiment_by_name("sec52").plan(context))
    expected = json.loads(json.dumps(to_jsonable(result)))
    assert view["result"] == expected
    # Status without the payload still carries the progress counters.
    slim = client.status(view["job_id"], include_result=False)
    assert "result" not in slim
    assert slim["progress"] == view["progress"]


def test_case_batch_and_results_endpoint(service) -> None:
    svc, client = service
    job = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    view = client.run(cases=[job], timeout=WAIT_TIMEOUT)
    assert view["case_count"] == 1
    assert view["progress"]["executed_jobs"] == 1
    assert view["result"] == {job.key(): run_job(job).to_dict()}
    # The cache lookup endpoint resolves the job's content address directly.
    assert client.result(job.key()) == run_job(job).to_dict()
    assert client.result("0" * 64) is None
    # Keys that are not plain hex content addresses never reach the
    # filesystem (no path traversal out of the cache root).
    assert client.result("..%2F..%2Fetc%2Fpasswd") is None
    assert client.result("KEY") is None


def test_recorded_trace_replays_bit_identically_through_the_service(
    service, canned_trace_file
) -> None:
    """The acceptance path: a recorded trace, replayed remotely via its
    recorded provenance, matches simulating the recorded bytes locally."""
    from repro.sim.simulator import Simulator
    from repro.trace import load_trace_archive

    svc, client = service
    archive = load_trace_archive(canned_trace_file)
    assert archive.header.params is not None
    job = SimJob(
        fmc_hash(),
        archive.header.params,
        archive.header.num_instructions,
        archive.header.seed,
    )
    view = client.run(cases=[job], timeout=WAIT_TIMEOUT)
    local = Simulator(fmc_hash()).run_trace(archive.trace)
    assert view["result"] == {job.key(): local.to_dict()}


def test_parallel_sim_jobs_inside_service(tmp_path) -> None:
    """A service worker thread can run a process pool (spawn start method)."""
    with running_service(tmp_path / "cache", sim_jobs=2) as (svc, client):
        jobs = [
            SimJob(ooo_64(), member, 800, TEST_SEED)
            for member in quick_fp_suite().members[:2]
        ]
        view = client.run(cases=jobs, timeout=WAIT_TIMEOUT)
        assert view["progress"]["executed_jobs"] == 2
        assert view["result"] == {job.key(): run_job(job).to_dict() for job in jobs}


def test_unknown_job_id_raises(service) -> None:
    svc, client = service
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("job-999999")


def test_transport_stalls_surface_as_service_error() -> None:
    """A server that accepts but never answers maps to ServiceError, not a raw
    socket.timeout traceback (the CLI turns ServiceError into exit code 2)."""
    import socket

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        port = listener.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=0.3)
        with pytest.raises(ServiceError, match="transport failure|cannot reach"):
            client.healthz()
    finally:
        listener.close()


# ----------------------------------------------------------------------
# Coalescing and admission control
# ----------------------------------------------------------------------


def test_identical_concurrent_submissions_run_once(service) -> None:
    """Two identical in-flight POSTs share one execution (the tentpole)."""
    svc, client = service
    started, release = threading.Event(), threading.Event()

    def gate(_state):
        started.set()
        release.wait(timeout=30)

    svc.manager.pre_execute = gate
    first = client.submit(figure="sec52", instructions=TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert not first.coalesced
    assert started.wait(timeout=10), "job never started executing"
    # Jobs execute on daemon threads so Ctrl-C on `repro serve` exits
    # promptly instead of joining a long-running simulation.
    assert any(
        thread.name == "repro-worker" and thread.daemon
        for thread in threading.enumerate()
    )
    second = client.submit(figure="sec52", instructions=TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert second.coalesced
    assert second.job_id == first.job_id
    svc.manager.pre_execute = None
    release.set()
    view = client.wait(first.job_id, timeout=WAIT_TIMEOUT)
    assert view["coalesced_submissions"] == 1
    assert view["progress"]["executed_jobs"] > 0
    # Exactly one execution happened for the two submissions.
    assert svc.manager.stats_document()["totals"] == {
        "submitted": 1,
        "coalesced": 1,
        "completed": 1,
        "failed": 0,
        "rejections": {"overloaded": 0, "tenant_quota_exceeded": 0},
    }


def test_resubmission_after_completion_is_pure_cache(service) -> None:
    svc, client = service
    cold = client.run(
        figure="sec52", instructions=TEST_INSTRUCTIONS, seed=TEST_SEED, timeout=WAIT_TIMEOUT
    )
    warm = client.run(
        figure="sec52", instructions=TEST_INSTRUCTIONS, seed=TEST_SEED, timeout=WAIT_TIMEOUT
    )
    # A new job (the first one finished, so no coalescing window remains) ...
    assert warm["job_id"] != cold["job_id"]
    # ... that executed zero simulations and reproduced identical numbers.
    assert warm["progress"]["executed_jobs"] == 0
    assert warm["progress"]["cache_hits"] == cold["progress"]["executed_jobs"]
    assert warm["result"] == cold["result"]
    assert warm["request_key"] == cold["request_key"]


def test_full_queue_answers_429(service) -> None:
    svc, client = service
    started, release = threading.Event(), threading.Event()

    def gate(_state):
        started.set()
        release.wait(timeout=30)

    svc.manager.pre_execute = gate
    # Occupy the single worker, then fill the two queue slots.
    held = [client.submit(figure="sec52", instructions=600, seed=1)]
    assert started.wait(timeout=10)
    held.append(client.submit(figure="sec52", instructions=600, seed=2))
    held.append(client.submit(figure="sec52", instructions=600, seed=3))
    with pytest.raises(ServiceOverloadedError):
        client.submit(figure="sec52", instructions=600, seed=4)
    svc.manager.pre_execute = None
    release.set()
    for receipt in held:
        client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
    assert svc.manager.health()["queue_depth"] == 0


def test_failed_job_reports_error_not_500(service) -> None:
    """A job that dies mid-execution fails that job, not the server."""
    svc, client = service

    def explode(_state):
        raise RuntimeError("injected failure")

    svc.manager.pre_execute = explode
    receipt = client.submit(figure="sec52", instructions=600, seed=5)
    with pytest.raises(ServiceError, match="injected failure"):
        client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
    svc.manager.pre_execute = None
    assert client.healthz()["status"] == "ok"
    assert svc.manager.stats_document()["totals"]["failed"] == 1


# ----------------------------------------------------------------------
# Long polls
# ----------------------------------------------------------------------


def _running_job(svc, client):
    """Submit a job and hold it running in ``pre_execute``; returns the
    receipt and the event that releases it."""
    started, release = threading.Event(), threading.Event()

    def gate(_state):
        started.set()
        release.wait(timeout=30)

    svc.manager.pre_execute = gate
    receipt = client.submit(figure="sec52", instructions=600, seed=7)
    assert started.wait(timeout=10), "job never started executing"
    return receipt, release


@pytest.mark.parametrize(
    "query, status, held",
    [
        ("", 200, False),
        ("?wait=0", 200, False),
        ("?wait=1e9", 200, True),
        ("?wait=soon", 400, False),
        ("?wait=-1", 400, False),
        ("?wait=nan", 400, False),
        ("?wait=inf", 400, False),
    ],
)
def test_wait_parameter_is_validated_and_clamped(
    service, monkeypatch, query, status, held
) -> None:
    """``?wait=`` comes from outside: only finite, non-negative seconds are
    accepted, a wait past the cap holds only for the cap, and no wait (or
    0) answers at once."""
    svc, client = service
    cap = 0.5
    monkeypatch.setattr("repro.service.server.MAX_POLL_WAIT_SECONDS", cap)
    receipt, release = _running_job(svc, client)
    try:
        began = time.monotonic()
        code, body = client._request("GET", f"/v1/jobs/{receipt.job_id}{query}")
        elapsed = time.monotonic() - began
    finally:
        release.set()
    assert code == status
    if status == 400:
        assert open_envelope(body, "error")["code"] == "bad_request"
    else:
        assert open_envelope(body, "job_status")["status"] == "running"
        assert (elapsed >= 0.9 * cap) == held, elapsed
    assert elapsed < 10 * cap


def test_run_waits_with_one_status_poll(service) -> None:
    """A job that runs ~0.5 s costs ``client.run()`` exactly one status
    poll: the server answers the long poll when the job finishes."""
    svc, client = service
    svc.manager.pre_execute = lambda _state: time.sleep(0.5)
    job = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    before = status_polls(svc)
    view = client.run(cases=[job], timeout=WAIT_TIMEOUT)
    assert view["status"] == "completed"
    assert status_polls(svc) - before == 1


def test_stop_answers_held_polls_promptly_and_truthfully(tmp_path) -> None:
    """stop() answers a held long poll with the job's current status and
    returns at once.  The job is ``running``, not ``failed``: the journal
    re-queues it for the next server generation."""
    config = ServiceConfig(
        host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"), workers=1
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    svc = ReproService(config)
    asyncio.run_coroutine_threadsafe(svc.start(), loop).result(timeout=10)
    client = ServiceClient(f"http://127.0.0.1:{svc.address[1]}", timeout=30.0)
    answers = []

    def poll(job_id):
        try:
            answers.append(client.status(job_id, wait=20.0)["status"])
        except ServiceError as error:
            answers.append(repr(error))

    try:
        receipt, release = _running_job(svc, client)
        poller = threading.Thread(target=poll, args=(receipt.job_id,))
        poller.start()
        deadline = time.monotonic() + 10
        while not svc._held_polls:
            assert time.monotonic() < deadline, "the poll was never held"
            time.sleep(0.01)
        began = time.monotonic()
        asyncio.run_coroutine_threadsafe(svc.stop(), loop).result(timeout=30)
        stopped_in = time.monotonic() - began
        poller.join(timeout=30)
        release.set()
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
    assert not poller.is_alive()
    assert stopped_in < 2.0
    assert answers == ["running"]


# ----------------------------------------------------------------------
# Wire schema
# ----------------------------------------------------------------------


def test_job_request_roundtrip_and_validation() -> None:
    job = SimJob(ooo_64(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    request = JobRequest(cases=(job,))
    rebuilt = JobRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert rebuilt == request
    assert rebuilt.key() == request.key()
    with pytest.raises(ConfigurationError):
        JobRequest()  # neither figure nor cases
    with pytest.raises(ConfigurationError):
        JobRequest(figure="fig7", cases=(job,))  # both
    with pytest.raises(ConfigurationError):
        JobRequest(figure="fig7", instructions=0)
    with pytest.raises(ConfigurationError):
        JobRequest(figure="no-such-figure").normalized()
    # Campaign knobs on a case batch would be silently misleading: each
    # SimJob already embeds its trace length and seed.
    with pytest.raises(ConfigurationError):
        JobRequest(cases=(job,), instructions=5_000)
    with pytest.raises(ConfigurationError):
        JobRequest(cases=(job,), seed=42)
    with pytest.raises(ConfigurationError):
        JobRequest(cases=(job,), full=True)


def test_request_key_normalises_campaign_defaults() -> None:
    """Defaulted and explicit-default submissions must coalesce."""
    implicit = JobRequest(figure="fig7")
    explicit = JobRequest(figure="fig7", instructions=8_000, seed=2008)
    assert implicit.key() == explicit.key()
    assert implicit.key() != JobRequest(figure="fig7", seed=2009).key()
    assert implicit.key() != JobRequest(figure="fig7", full=True).key()
    assert implicit.key() != JobRequest(figure="sec52").key()


def test_cli_service_defaults_match_server() -> None:
    """The CLI restates the service defaults to stay lazy; they must agree."""
    from repro.exp import cli
    from repro.service import server

    assert cli.DEFAULT_SERVICE_PORT == server.DEFAULT_PORT
    assert cli.DEFAULT_CACHE_DIR == ServiceConfig().cache_dir


def test_envelope_validation() -> None:
    envelope = wire_envelope("job_status", {"job_id": "job-000001"})
    assert open_envelope(envelope, "job_status") == {"job_id": "job-000001"}
    with pytest.raises(ConfigurationError):
        open_envelope(envelope, "job_request")  # wrong kind
    with pytest.raises(ConfigurationError):
        open_envelope({"kind": "job_status", "payload": {}}, "job_status")  # no version
    with pytest.raises(ConfigurationError):
        open_envelope("not a mapping", "job_status")
