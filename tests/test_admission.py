"""Tests for answering all-cached case batches at admission.

A case batch whose every case is already in the result cache adds no
work: ``POST /v1/jobs`` answers it ``completed`` without queueing, and it
is still journalled and charged to its tenant.  Every case is looked up in
the cache once per submission: admission stops at the first miss, and the
worker does not ask again for what admission already asked.
"""

from __future__ import annotations

import json
import threading

from _helpers import TEST_INSTRUCTIONS
from test_service import WAIT_TIMEOUT, running_service

from repro.common.serialize import open_envelope, wire_envelope
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.service.journal import journal_path, replay_journal
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite, quick_int_suite


def _cases(seed: int, count: int = 2):
    members = list(quick_fp_suite()) + list(quick_int_suite())
    return [SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, seed) for member in members[:count]]


def _cache_lookups(service) -> int:
    return sum(
        int(child.value)
        for child in service.metrics.series("repro_cache_requests_total").values()
    )


def _post(client, cases):
    """``POST /v1/jobs`` through the client's transport: (status, receipt)."""
    body = wire_envelope("job_request", JobRequest(cases=tuple(cases)).to_dict())
    status, data = client._request("POST", "/v1/jobs", body)
    return status, open_envelope(data, "job_accepted")


def test_an_all_cached_batch_completes_at_admission(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    cases = _cases(11)
    with running_service(cache_dir) as (svc, client):
        cold = client.run(cases=cases, timeout=WAIT_TIMEOUT)
        assert cold["progress"] == {"executed_jobs": 2, "cache_hits": 0}
        before = client.stats()["tenants"]["default"]

        status, receipt = _post(client, cases)
        assert status == 202
        assert receipt["status"] == "completed"
        assert not receipt["coalesced"]
        state = svc.manager.jobs[receipt["job_id"]]
        assert state.attempts == 0 and state.runner is None
        view = client.status(receipt["job_id"])
        assert view["status"] == "completed"
        assert view["progress"] == {"executed_jobs": 0, "cache_hits": 2}
        assert view["result"] == cold["result"]
        assert svc.manager.scheduler.queued_total() == 0

        after = client.stats()["tenants"]["default"]
        for event, rise in (("admitted", 1), ("completed", 1), ("dispatched", 0)):
            assert after["jobs"][event] - before["jobs"][event] == rise, event
        assert after["sims"]["cache_hits"] - before["sims"]["cache_hits"] == 2
        assert after["sims"]["executed"] == before["sims"]["executed"]

    journal = journal_path(cache_dir)
    records = [json.loads(line) for line in journal.read_text(encoding="utf-8").splitlines()]
    events = [record["event"] for record in records if record.get("job_id") == receipt["job_id"]]
    assert events == ["admitted", "completed"]
    assert replay_journal(journal).pending == []


def test_a_batch_with_one_uncached_case_queues(tmp_path) -> None:
    cases = _cases(12, count=3)
    with running_service(tmp_path / "cache") as (svc, client):
        client.run(cases=cases[:2], timeout=WAIT_TIMEOUT)
        before = client.stats()["tenants"]["default"]["jobs"]["dispatched"]
        status, receipt = _post(client, cases)
        assert status == 202
        assert receipt["status"] in ("queued", "running")
        view = client.wait(receipt["job_id"], timeout=WAIT_TIMEOUT)
        assert view["progress"] == {"executed_jobs": 1, "cache_hits": 2}
        assert view["attempts"] == 1
        after = client.stats()["tenants"]["default"]["jobs"]["dispatched"]
        assert after - before == 1


def test_an_identical_in_flight_batch_still_coalesces(tmp_path) -> None:
    cases = _cases(13)
    started, release = threading.Event(), threading.Event()

    def gate(state) -> None:
        started.set()
        release.wait(timeout=30)

    with running_service(tmp_path / "cache") as (svc, client):
        svc.manager.pre_execute = gate
        first = client.submit(cases=cases)
        assert started.wait(timeout=10)
        second = client.submit(cases=cases)
        assert second.coalesced and second.job_id == first.job_id
        release.set()
        view = client.wait(first.job_id, timeout=WAIT_TIMEOUT)
        assert view["progress"]["executed_jobs"] == 2
        assert view["coalesced_submissions"] == 1


def test_each_case_is_looked_up_in_the_cache_once(tmp_path) -> None:
    """A cold batch costs one lookup per case (admission stops at the first
    miss and the worker asks only for the rest), and so does a warm one."""
    cases = _cases(14, count=3)
    with running_service(tmp_path / "cache") as (svc, client):
        lookups = _cache_lookups(svc)
        cold = client.run(cases=cases, timeout=WAIT_TIMEOUT)
        assert cold["progress"]["executed_jobs"] == 3
        assert _cache_lookups(svc) - lookups == 3

        # One hit, then a miss: admission asks twice, the worker once more.
        mixed = cases[:1] + _cases(15, count=2)
        lookups = _cache_lookups(svc)
        view = client.run(cases=mixed, timeout=WAIT_TIMEOUT)
        assert view["progress"] == {"executed_jobs": 2, "cache_hits": 1}
        assert _cache_lookups(svc) - lookups == 3

        lookups = _cache_lookups(svc)
        warm = client.run(cases=cases, timeout=WAIT_TIMEOUT)
        assert warm["progress"] == {"executed_jobs": 0, "cache_hits": 3}
        assert _cache_lookups(svc) - lookups == 3
