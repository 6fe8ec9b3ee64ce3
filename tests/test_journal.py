"""Tests for the durable job journal (repro.service.journal).

The contract under test is the PR's fault-tolerance tentpole: every
admitted job either reaches a terminal record or is re-queued by the next
generation's replay, accounting totals chain across restarts without
double counting, and a torn tail (the normal result of a kill mid-append)
never poisons recovery.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from _helpers import TEST_INSTRUCTIONS

from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.service.jobs import JobManager
from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    journal_path,
    replay_journal,
)
from repro.service.tenancy import job_totals, tenant_events
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

from test_service import running_service

WAIT_TIMEOUT = 120.0


def _request(seed: int) -> JobRequest:
    """A small batch request with a seed-distinct content address."""
    case = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, seed)
    return JobRequest(cases=(case,))


# ----------------------------------------------------------------------
# File layout and pure replay
# ----------------------------------------------------------------------


def test_journal_path_is_per_shard(tmp_path) -> None:
    assert journal_path(tmp_path).name == "journal-s0.jsonl"
    assert journal_path(tmp_path, 3).name == "journal-s3.jsonl"


def test_replay_of_missing_file_is_empty(tmp_path) -> None:
    replay = replay_journal(tmp_path / "absent.jsonl")
    assert replay.records == 0
    assert replay.pending == []
    assert replay.tenant_events == {}


def test_replay_recovers_pending_and_totals(tmp_path) -> None:
    manager = JobManager(queue_limit=100)
    path = journal_path(tmp_path)
    manager.recover_journal(path)
    states = [manager.submit(_request(100 + index))[0] for index in range(3)]
    manager.journal.completed(states[0])
    manager.journal.close()

    replay = replay_journal(path)
    # snapshot + 3 admissions + 1 completion
    assert replay.records == 5
    totals = job_totals(replay.tenant_events)
    assert totals["submitted"] == 3
    assert totals["completed"] == 1
    pending_ids = [job.job_id for job in replay.pending]
    assert pending_ids == [states[1].job_id, states[2].job_id]
    # The replayed request reconstructs the same content address.
    assert replay.pending[0].request.key() == states[1].key


def test_admitted_record_holds_the_work_and_where_it_was_admitted(tmp_path) -> None:
    manager = JobManager(queue_limit=100)
    path = journal_path(tmp_path)
    manager.recover_journal(path)
    manager.submit(_request(11), trace_id="trace-11", tenant="alpha", priority="batch")
    manager.journal.close()
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    assert sorted(record) == [
        "event", "job_id", "lane", "request", "requeued", "schema", "tenant", "trace_id", "ts",
    ]
    assert (record["tenant"], record["lane"], record["trace_id"]) == ("alpha", "batch", "trace-11")
    assert record["request"] == _request(11).to_dict()


def test_replay_skips_torn_tail_and_foreign_schema(tmp_path) -> None:
    manager = JobManager(queue_limit=100)
    path = journal_path(tmp_path)
    manager.recover_journal(path)
    manager.submit(_request(7))
    manager.journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": 99, "event": "admitted"}) + "\n")
        handle.write('{"schema": 1, "event": "admitt')  # torn mid-append

    replay = replay_journal(path)
    assert replay.skipped == 2
    assert replay.records == 2  # snapshot + the one good admission
    assert len(replay.pending) == 1


def test_replay_ignores_unknown_event_names(tmp_path) -> None:
    path = tmp_path / "journal-s0.jsonl"
    record = {"schema": JOURNAL_SCHEMA_VERSION, "event": "promoted", "ts": time.time()}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    replay = replay_journal(path)
    assert replay.records == 0
    assert replay.skipped == 1


def test_closed_journal_drops_appends_silently(tmp_path) -> None:
    journal = JobJournal(tmp_path / "journal-s0.jsonl")
    journal.close()
    journal.append("snapshot", totals={})  # must not raise
    assert replay_journal(journal.path).records == 0


# ----------------------------------------------------------------------
# Manager recovery
# ----------------------------------------------------------------------


def test_recovery_restores_accounting_and_requeues(tmp_path) -> None:
    path = journal_path(tmp_path)
    first = JobManager(queue_limit=100)
    first.recover_journal(path)
    states = [first.submit(_request(200 + index))[0] for index in range(3)]
    first.journal.completed(states[0])
    first.journal.close()

    second = JobManager(queue_limit=100)
    second.recover_journal(path)
    assert path.with_name("journal-s0.jsonl.prev").exists()
    totals = second.stats_document()["totals"]
    assert totals["submitted"] == 3
    assert totals["completed"] == 1
    assert second._journal_replays.value == 1
    # The two unfinished jobs are re-queued under the same content
    # addresses, so cached results still resolve them.
    requeued = list(second.jobs.values())
    assert {state.key for state in requeued} == {states[1].key, states[2].key}
    assert all(state.status.value == "queued" for state in requeued)

    # A third generation replays the second's snapshot + requeued
    # admissions without double counting: totals are unchanged.
    second.journal.close()
    third = JobManager(queue_limit=100)
    third.recover_journal(path)
    totals = third.stats_document()["totals"]
    assert totals["submitted"] == 3
    assert totals["completed"] == 1
    assert len(third.jobs) == 2


def test_recovery_restores_tenant_accounting(tmp_path) -> None:
    path = journal_path(tmp_path)
    first = JobManager(queue_limit=100)
    first.recover_journal(path)
    first.submit(_request(300))
    first.journal.close()

    second = JobManager(queue_limit=100)
    second.recover_journal(path)
    totals = tenant_events(second.metrics)
    # The replayed admission is charged to the tenant; the requeued
    # re-admission is not (it would double count across generations).
    assert totals["default"]["admitted"] == 1


#: A journal as the previous record layout wrote it: the ``admitted`` record
#: also held ``key``, ``policy`` and ``figure``, and its request document
#: named the tenant and priority.  Job 1 rode the batch lane although its
#: work alone implies ``interactive``; job 3 completed.
_OLD_LAYOUT_JOURNAL = [
    {"event": "snapshot", "schema": 1, "tenants": {}, "ts": 1.0},
    {
        "event": "admitted", "figure": "sec52", "job_id": "job-000001",
        "key": "4e11d677d2998243a2b4e9185f0874ff1f6d16bb5ecbbeb68e17cadf6bad5c5d",
        "lane": "batch", "policy": "lru",
        "request": {
            "cases": [], "figure": "sec52", "full": False, "instructions": 600,
            "policy": "lru", "priority": "batch", "seed": 4, "tenant": "alpha",
        },
        "requeued": False, "schema": 1, "tenant": "alpha", "trace_id": "trace-a", "ts": 2.0,
    },
    {
        "event": "admitted", "figure": "sec52", "job_id": "job-000002",
        "key": "49728da0ad7f24ddcd3fab7635682923a63c07b6d8c400f6fd38db62d41e4510",
        "lane": "interactive", "policy": "lru",
        "request": {
            "cases": [], "figure": "sec52", "full": False, "instructions": 600,
            "policy": "lru", "priority": None, "seed": 5, "tenant": None,
        },
        "requeued": False, "schema": 1, "tenant": "default", "trace_id": "trace-b", "ts": 3.0,
    },
    {
        "event": "admitted", "figure": "sec52", "job_id": "job-000003",
        "key": "dcde6c5ee87af289cda0e60b2277ce1a6a55677d909c3118be2620d2f120ec2a",
        "lane": "interactive", "policy": "lru",
        "request": {
            "cases": [], "figure": "sec52", "full": False, "instructions": 600,
            "policy": "lru", "priority": "interactive", "seed": 6, "tenant": "beta",
        },
        "requeued": False, "schema": 1, "tenant": "beta", "trace_id": "trace-c", "ts": 4.0,
    },
    {
        "event": "completed", "job_id": "job-000003",
        "key": "dcde6c5ee87af289cda0e60b2277ce1a6a55677d909c3118be2620d2f120ec2a",
        "schema": 1, "tenant": "beta", "ts": 5.0,
    },
]


def test_old_layout_journal_requeues_into_recorded_tenant_and_lane(tmp_path) -> None:
    path = journal_path(tmp_path)
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in _OLD_LAYOUT_JOURNAL), encoding="utf-8"
    )
    manager = JobManager(queue_limit=100)
    manager.recover_journal(path)
    manager.journal.close()
    requeued = sorted(manager.jobs.values(), key=lambda state: state.trace_id)
    assert [(state.tenant, state.lane, state.key, state.trace_id) for state in requeued] == [
        ("alpha", "batch", _OLD_LAYOUT_JOURNAL[1]["key"], "trace-a"),
        ("default", "interactive", _OLD_LAYOUT_JOURNAL[2]["key"], "trace-b"),
    ]
    assert len(manager.scheduler.runtime("alpha").lanes["batch"]) == 1
    events = tenant_events(manager.metrics)
    assert {tenant: counts["admitted"] for tenant, counts in events.items()} == {
        "alpha": 1, "beta": 1, "default": 1,
    }
    assert events["beta"]["completed"] == 1


def test_recovery_without_prior_journal_starts_clean(tmp_path) -> None:
    manager = JobManager(queue_limit=100)
    manager.recover_journal(journal_path(tmp_path))
    assert manager.stats_document()["totals"]["submitted"] == 0
    assert manager._journal_replays.value == 0
    assert manager.jobs == {}
    # The fresh generation is headed by a snapshot record.
    manager.journal.close()
    lines = journal_path(tmp_path).read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["event"] == "snapshot"


# ----------------------------------------------------------------------
# Service restart round-trip
# ----------------------------------------------------------------------


def test_restart_requeues_unfinished_jobs_and_completes_them(tmp_path) -> None:
    """The acceptance scenario: kill mid-job, restart, nothing is lost.

    The first service instance admits a job and blocks it mid-execution
    (via the ``pre_execute`` test hook), then shuts down -- the journal
    holds ``admitted``/``dispatched`` with no terminal record.  A second
    instance over the same cache directory must replay the journal,
    re-queue the job and complete it, resolvable through the original
    receipt's request key.
    """
    cache_dir = tmp_path / "cache"
    block = threading.Event()
    with running_service(cache_dir) as (service, client):
        service.manager.pre_execute = lambda state: block.wait(timeout=60)
        receipt = client.submit(cases=[
            SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, 400)
        ])
        deadline = time.monotonic() + WAIT_TIMEOUT
        while client.status(receipt.job_id)["status"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
    block.set()  # unblock the abandoned daemon thread

    with running_service(cache_dir) as (service, client):
        assert service.manager._journal_replays.value == 1
        health = client.healthz()
        assert health["jobs"]["submitted"] == 1
        deadline = time.monotonic() + WAIT_TIMEOUT
        payload = None
        while payload is None and time.monotonic() < deadline:
            payload = client.result(receipt.request_key)
            if payload is None:
                time.sleep(0.05)
        assert payload is not None, "re-queued job never completed after restart"
        assert health["journal"].endswith("journal-s0.jsonl")


def test_restart_does_not_requeue_completed_jobs(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    case = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, 500)
    with running_service(cache_dir) as (service, client):
        client.submit(cases=[case], wait=True, timeout=WAIT_TIMEOUT)

    with running_service(cache_dir) as (service, client):
        health = client.healthz()
        assert health["jobs"]["submitted"] == 1
        assert health["jobs"]["completed"] == 1
        assert health["queue_depth"] == 0
