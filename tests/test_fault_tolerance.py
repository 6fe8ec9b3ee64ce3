"""Satellite fault-tolerance regressions: cache quarantine, client
backoff, and the load fleet's handling of a dead client.

* A corrupt cache entry (torn write, wrong type, unparseable payload) is
  quarantined to ``<name>.corrupt`` and counted, and the next put/get
  round-trips cleanly -- corruption must cost one miss, not the key.
* The client backs off under rejection and never while waiting: 429
  resubmission honours ``Retry-After``, and ``wait()`` is a loop of long
  polls, each within the budget left and the client's socket timeout.
* ``collect_fleet_samples`` fails the stage loudly when a client dies
  without reporting: no fault site kills a client, so a death is a bug.
"""

from __future__ import annotations

import queue as queue_module
import time

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED

from repro.common.errors import (
    ConfigurationError,
    LoadDriverError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.common.serialize import wire_envelope
from repro.exp.cache import ResultCache
from repro.exp.runner import SimJob, run_job
from repro.load.bench import LoadBenchConfig
from repro.load.driver import collect_fleet_samples
from repro.load.epoch import Sample
from repro.obs.metrics import MetricsRegistry
from repro.service.client import (
    RESUBMIT_BACKOFF_BASE,
    RESUBMIT_BACKOFF_CAP,
    ServiceClient,
)
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite


# ----------------------------------------------------------------------
# Corrupt-entry quarantine
# ----------------------------------------------------------------------


def _corrupt_counter(registry: MetricsRegistry):
    family = registry.counter(
        "repro_cache_requests_total",
        "Result-cache lookups, by outcome",
        labelnames=("result",),
    )
    return family.labels("corrupt")


def _cached_job(tmp_path):
    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache", metrics=registry)
    job = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    result = run_job(job)
    cache.put(job.key(), result)
    return cache, registry, job, result


def test_truncated_entry_is_quarantined_and_rewritable(tmp_path) -> None:
    cache, registry, job, result = _cached_job(tmp_path)
    path = cache.path_for(job.key())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # a hand-torn write

    assert cache.get(job.key()) is None
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()
    assert _corrupt_counter(registry).value == 1

    # The key is free again: the next put/get round-trips.
    cache.put(job.key(), result)
    recovered = cache.get(job.key())
    assert recovered is not None
    assert recovered.to_dict() == result.to_dict()


def test_non_dict_entry_is_quarantined(tmp_path) -> None:
    cache, registry, job, _ = _cached_job(tmp_path)
    path = cache.path_for(job.key())
    path.write_text('["not", "a", "cache", "entry"]', encoding="utf-8")
    assert cache.get(job.key()) is None
    assert path.with_name(path.name + ".corrupt").exists()
    assert _corrupt_counter(registry).value == 1


def test_unparseable_result_payload_is_quarantined(tmp_path) -> None:
    import json

    cache, registry, job, _ = _cached_job(tmp_path)
    path = cache.path_for(job.key())
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["result"] = {"garbage": True}
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(job.key()) is None
    assert _corrupt_counter(registry).value == 1


def test_schema_mismatch_is_a_plain_miss_not_corruption(tmp_path) -> None:
    import json

    cache, registry, job, _ = _cached_job(tmp_path)
    path = cache.path_for(job.key())
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["schema"] = -1
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(job.key()) is None
    # A versioned-but-stale entry is not corruption: it stays on disk for
    # the next put to overwrite, and the corrupt counter stays untouched.
    assert path.exists()
    assert _corrupt_counter(registry).value == 0


# ----------------------------------------------------------------------
# Client backoff
# ----------------------------------------------------------------------


def test_resubmit_delay_honours_retry_after(monkeypatch) -> None:
    bounds = []

    def record_uniform(low, high):
        bounds.append((low, high))
        return low

    monkeypatch.setattr("repro.service.client.random.uniform", record_uniform)
    assert ServiceClient._resubmit_delay(2.0, attempt=0) == 2.0
    assert bounds[-1] == (1.0, 1.25)  # jitter multiplier on the server hint


def test_resubmit_delay_caps_exponential_backoff(monkeypatch) -> None:
    monkeypatch.setattr("repro.service.client.random.uniform", lambda low, high: high)
    assert ServiceClient._resubmit_delay(None, attempt=0) == RESUBMIT_BACKOFF_BASE
    assert ServiceClient._resubmit_delay(None, attempt=2) == RESUBMIT_BACKOFF_BASE * 4
    assert ServiceClient._resubmit_delay(None, attempt=50) == RESUBMIT_BACKOFF_CAP


def _overloaded_envelope(retry_after):
    return wire_envelope(
        "error",
        {
            "status": 429,
            "code": "overloaded",
            "message": "queue full",
            "retry_after": retry_after,
        },
    )


def _accepted_envelope():
    return wire_envelope(
        "job_accepted",
        {
            "job_id": "job-000001",
            "request_key": "0" * 64,
            "status": "queued",
            "coalesced": False,
        },
    )


def _one_case():
    return SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)


def test_submit_without_wait_surfaces_429_immediately(monkeypatch) -> None:
    client = ServiceClient("http://127.0.0.1:1")
    monkeypatch.setattr(
        client, "_request", lambda *args, **kwargs: (429, _overloaded_envelope(3.5))
    )
    with pytest.raises(ServiceOverloadedError) as info:
        client.submit(cases=[_one_case()])
    assert info.value.retry_after == 3.5


def test_submit_with_wait_resubmits_after_429(monkeypatch) -> None:
    client = ServiceClient("http://127.0.0.1:1")
    responses = [(429, _overloaded_envelope(0.5)), (202, _accepted_envelope())]
    monkeypatch.setattr(client, "_request", lambda *a, **k: responses.pop(0))
    monkeypatch.setattr(
        client, "wait", lambda *a, **k: {"status": "completed", "result": {}}
    )
    sleeps = []
    monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
    monkeypatch.setattr("repro.service.client.random.uniform", lambda low, high: low)

    view = client.submit(cases=[_one_case()], wait=True, timeout=30.0)
    assert view["status"] == "completed"
    assert not responses  # both canned responses consumed
    assert sleeps == [0.5]  # the honoured Retry-After


def test_submit_with_wait_gives_up_when_budget_exhausted(monkeypatch) -> None:
    client = ServiceClient("http://127.0.0.1:1")
    monkeypatch.setattr(
        client, "_request", lambda *a, **k: (429, _overloaded_envelope(60.0))
    )
    with pytest.raises(ServiceOverloadedError):
        # A 60s Retry-After cannot fit a 1s budget: no sleep, fail now.
        client.submit(cases=[_one_case()], wait=True, timeout=1.0)


@pytest.mark.parametrize("last", ["completed", "running"])
def test_wait_long_polls_within_the_budget_and_never_sleeps(monkeypatch, last) -> None:
    client = ServiceClient("http://127.0.0.1:1", timeout=10.0)
    views = [{"status": "running"}] * 2 + [{"status": last}]
    polls = []

    class Clock:
        now = 0.0

        def monotonic(self):
            return self.now

        def sleep(self, seconds):
            raise AssertionError(f"wait() slept {seconds}s")

    clock = Clock()

    def long_poll(job_id, include_result=True, *, wait=0.0):
        # The server holds each poll for its whole wait.
        polls.append((wait, 12.0 - clock.now))
        clock.now += wait
        return views.pop(0)

    monkeypatch.setattr(client, "status", long_poll)
    monkeypatch.setattr("repro.service.client.time", clock)
    if last == "completed":
        assert client.wait("job-000001", timeout=12.0)["status"] == "completed"
    else:
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("job-000001", timeout=12.0)
    # Half the socket timeout per poll, then the 2 s the budget has left.
    assert [wait for wait, _ in polls] == [5.0, 5.0, 2.0]
    for wait, remaining in polls:
        assert 0 < wait <= remaining
        assert wait < client.timeout


# ----------------------------------------------------------------------
# Fleet failures
# ----------------------------------------------------------------------


class _FakeQueue:
    def __init__(self, reports):
        self._reports = list(reports)

    def get(self, timeout=None):
        if self._reports:
            return self._reports.pop(0)
        raise queue_module.Empty

    def empty(self):
        return not self._reports


class _FakeProcess:
    def __init__(self, name, exitcode):
        self.name = name
        self.exitcode = exitcode

    def is_alive(self):
        return self.exitcode is None


def _sample():
    return Sample(kind="submit", tenant="default", start=0.0, latency=0.1, ok=True)


def test_unexpected_client_death_still_fails_the_stage() -> None:
    processes = [_FakeProcess("client-0", 0), _FakeProcess("client-1", 1)]
    with pytest.raises(LoadDriverError, match="client-1"):
        collect_fleet_samples(
            _FakeQueue([(0, [_sample()])]),
            processes,
            expected_reports=2,
            deadline=time.monotonic() + 5.0,
        )


def test_loadbench_faults_require_a_self_served_instance() -> None:
    with pytest.raises(ConfigurationError, match="self-served"):
        LoadBenchConfig(server="http://127.0.0.1:1", faults="faults.json")
