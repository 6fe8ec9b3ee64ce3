"""Unit tests for the load harness (repro.load) and cross-shard merging.

The harness's measurement math runs with no server and no processes: the
request loop takes its clock and issue function as parameters, the epoch
accounting is pure, and the shard-merge functions are I/O-free by design.
The one end-to-end piece -- two in-process shard services proxying and
aggregating over real HTTP -- lives at the bottom.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time

import pytest
from _helpers import status_polls

from repro.common.errors import ConfigurationError, LoadDriverError
from repro.exp.request import JobRequest
from repro.load.bench import (
    LoadBenchConfig,
    _free_port_block,
    _git_revision,
    evaluate_loadbench_gate,
)
from repro.load.driver import DriverConfig, collect_fleet_samples, run_request_loop
from repro.load.epoch import EpochSeries, Sample, quantile
from repro.load.workload import Req, Workload
from repro.obs.metrics import LogHistogram, MetricsRegistry
from repro.obs.tracing import TRACE_ID_HEADER
from repro.service.jobs import JobManager
from repro.service.shards import (
    group_stats_document,
    merge_metrics_documents,
    shard_port,
    shard_ports,
)
from repro.service.tenancy import TenancyConfig, TenantSpec

# ----------------------------------------------------------------------
# Percentile math
# ----------------------------------------------------------------------


def test_quantile_matches_statistics_inclusive() -> None:
    """The harness quantile is the stdlib's inclusive estimator exactly."""
    import random

    rng = random.Random(7)
    for size in (2, 5, 21, 100, 137):
        values = [rng.expovariate(1.0) for _ in range(size)]
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in (0.50, 0.95, 0.99):
            assert quantile(values, q) == pytest.approx(cuts[int(q * 100) - 1])


def test_quantile_edge_cases() -> None:
    assert quantile([], 0.5) == 0.0
    assert quantile([3.25], 0.99) == 3.25
    assert quantile([1.0, 2.0], 0.5) == 1.5
    assert quantile([1.0, 2.0, 3.0], 0.0) == 1.0
    assert quantile([1.0, 2.0, 3.0], 1.0) == 3.0


# ----------------------------------------------------------------------
# Epoch accounting
# ----------------------------------------------------------------------


def _sample(start: float, kind: str = "submit", tenant=None, latency: float = 0.1, ok=True):
    return Sample(kind=kind, tenant=tenant, start=start, latency=latency, ok=ok)


def test_epoch_series_buckets_and_discards_warmup() -> None:
    series = EpochSeries(epoch_seconds=1.0, epochs=3, warmup_epochs=1)
    # Two warmup samples, four measured, one straggler past the window.
    series.extend(
        [
            _sample(0.1),
            _sample(0.9, kind="health"),
            _sample(1.1),
            _sample(1.9),
            _sample(2.0),
            _sample(2.5, ok=False),
            _sample(3.2),  # straggler: dropped, not folded into epoch 2
        ]
    )
    assert series.dropped_samples == 1
    document = series.document()
    assert [entry["warmup"] for entry in document["per_epoch"]] == [True, False, False]
    assert [entry["requests"] for entry in document["per_epoch"]] == [2, 2, 2]
    measured = document["measured"]
    # The measured window covers epochs 1-2 only: 4 samples over 2 seconds.
    assert measured["requests"] == 4
    assert measured["duration_seconds"] == 2.0
    assert measured["throughput_rps"] == pytest.approx(2.0)
    assert measured["errors"] == 1
    # Warmup traffic (the health sample) never leaks into the aggregate.
    assert set(measured["endpoints"]) == {"submit"}
    assert measured["endpoints"]["submit"]["requests"] == 4
    assert measured["endpoints"]["submit"]["errors"] == 1


def test_epoch_series_tenant_shares_count_ok_submits_only() -> None:
    series = EpochSeries(epoch_seconds=1.0, epochs=2, warmup_epochs=0)
    series.extend(
        [
            _sample(0.1, tenant="alpha"),
            _sample(0.2, tenant="alpha"),
            _sample(0.3, tenant="beta"),
            _sample(0.4, tenant="beta", ok=False),  # errors earn no share
            _sample(0.5, kind="stats", tenant="beta"),  # reads earn no share
            _sample(0.6),  # tenant None books under "default"
        ]
    )
    tenants = series.document()["measured"]["tenants"]
    assert tenants["alpha"] == {"completed": 2, "share": 0.5}
    assert tenants["beta"] == {"completed": 1, "share": 0.25}
    assert tenants["default"] == {"completed": 1, "share": 0.25}


def test_epoch_series_validates_configuration() -> None:
    with pytest.raises(ConfigurationError):
        EpochSeries(epoch_seconds=0.0, epochs=2)
    with pytest.raises(ConfigurationError):
        EpochSeries(epoch_seconds=1.0, epochs=0)
    with pytest.raises(ConfigurationError):
        EpochSeries(epoch_seconds=1.0, epochs=2, warmup_epochs=2)


# ----------------------------------------------------------------------
# Arrival disciplines (fake clock, no server)
# ----------------------------------------------------------------------


class _FakeClock:
    """A virtual clock: ``sleep`` advances it, ``issue`` charges service time."""

    def __init__(self, service_seconds: float) -> None:
        self.now = 0.0
        self.service_seconds = service_seconds

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def issue(self, request: Req) -> bool:
        self.now += self.service_seconds
        return True


def _next_request(index: int) -> Req:
    return Req(index=index, kind="submit", tenant=None, seed=1, instructions=10)


def test_open_loop_holds_the_arrival_schedule() -> None:
    """Open loop issues on the k/rate grid even when service is slow.

    Service takes 0.3s against a 1s inter-arrival gap: arrivals still land
    at 0,1,2,3,4 -- a saturated server must show up as latency, never as a
    silently reduced offered load.
    """
    clock = _FakeClock(service_seconds=0.3)
    samples = run_request_loop(
        "open", 5.0, _next_request, clock.issue, rate=1.0,
        clock=clock.clock, sleep=clock.sleep,
    )
    assert [s.start for s in samples] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])


def test_open_loop_issues_overdue_arrivals_back_to_back() -> None:
    """When service time exceeds the gap, overdue arrivals issue immediately
    (the schedule is fixed; the client catches up as fast as it can)."""
    clock = _FakeClock(service_seconds=2.0)
    samples = run_request_loop(
        "open", 6.0, _next_request, clock.issue, rate=1.0,
        clock=clock.clock, sleep=clock.sleep,
    )
    # Arrivals 0..5 all issue (scheduled inside the window), at 2s spacing.
    assert [s.start for s in samples] == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    assert len(samples) == 6


def test_closed_loop_adapts_to_service_time() -> None:
    clock = _FakeClock(service_seconds=0.3)
    samples = run_request_loop(
        "closed", 1.0, _next_request, clock.issue,
        clock=clock.clock, sleep=clock.sleep,
    )
    assert [s.start for s in samples] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert all(s.latency == pytest.approx(0.3) for s in samples)


def test_driver_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        DriverConfig(urls=())
    with pytest.raises(ConfigurationError):
        DriverConfig(urls=("http://x",), mode="burst")
    with pytest.raises(ConfigurationError):
        DriverConfig(urls=("http://x",), mode="open", rate=0.0)


class _FakeReportQueue:
    """Duck-typed report queue: scripted ``get`` outcomes, then Empty."""

    def __init__(self, outcomes) -> None:
        self._outcomes = list(outcomes)

    def get(self, timeout=None):
        import queue as queue_module

        if not self._outcomes:
            raise queue_module.Empty
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def empty(self) -> bool:
        return not self._outcomes


class _FakeProcess:
    def __init__(self, name: str, alive: bool = True, exitcode=None) -> None:
        self.name = name
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self) -> bool:
        return self._alive


def test_collect_fleet_samples_gathers_every_report() -> None:
    sample = Sample(kind="submit", tenant="t", start=0.0, latency=0.1, ok=True)
    report_queue = _FakeReportQueue([(0, [sample]), (1, [sample, sample])])
    processes = [_FakeProcess("c0"), _FakeProcess("c1")]
    collected = collect_fleet_samples(report_queue, processes, 2, deadline=10.0, clock=lambda: 0.0)
    assert len(collected) == 3


def test_collect_fleet_samples_propagates_real_queue_errors() -> None:
    """Only queue.Empty means "keep waiting"; a broken queue is a failure.

    Regression: the driver used to catch bare ``Exception`` around the
    queue get, so an OSError from a torn-down multiprocessing queue was
    silently treated as "no report yet" until the deadline.
    """
    report_queue = _FakeReportQueue([OSError("handle is closed")])
    processes = [_FakeProcess("c0")]
    with pytest.raises(OSError):
        collect_fleet_samples(report_queue, processes, 1, deadline=10.0, clock=lambda: 0.0)


def test_collect_fleet_samples_raises_for_dead_unreported_client() -> None:
    """A client that crashed without reporting fails the stage loudly.

    Regression: a crashed worker used to mean silently waiting out the
    full deadline and then undercounting the offered load.
    """
    report_queue = _FakeReportQueue([])
    processes = [
        _FakeProcess("repro-load-client-0", alive=False, exitcode=1),
        _FakeProcess("repro-load-client-1", alive=True),
    ]
    with pytest.raises(LoadDriverError, match="repro-load-client-0"):
        collect_fleet_samples(report_queue, processes, 2, deadline=10.0, clock=lambda: 0.0)


def test_collect_fleet_samples_stops_when_fleet_exits_cleanly() -> None:
    """All clients gone with exit 0 ends the wait instead of spinning."""
    sample = Sample(kind="submit", tenant="t", start=0.0, latency=0.1, ok=True)
    report_queue = _FakeReportQueue([(0, [sample])])
    processes = [
        _FakeProcess("c0", alive=False, exitcode=0),
        _FakeProcess("c1", alive=False, exitcode=0),
    ]
    collected = collect_fleet_samples(report_queue, processes, 2, deadline=10.0, clock=lambda: 0.0)
    assert len(collected) == 1


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------


def test_reqgen_is_deterministic_and_seed_distinct() -> None:
    workload = Workload(tenants=(("alpha", 2.0), ("beta", 1.0)))
    first = [workload.engine(3).request(i) for i in range(50)]
    second = [workload.engine(3).request(i) for i in range(50)]
    assert first == second
    # Distinct (client, index) pairs must yield distinct simulation seeds,
    # or the server coalesces the whole fleet into one job.
    other_client = [workload.engine(4).request(i) for i in range(50)]
    seeds = {r.seed for r in first} | {r.seed for r in other_client}
    assert len(seeds) == 100
    assert all(r.kind in ("submit", "health", "stats") for r in first)
    assert all(r.tenant in ("alpha", "beta") for r in first)


def test_workload_validation() -> None:
    with pytest.raises(ConfigurationError):
        Workload(mix=())
    with pytest.raises(ConfigurationError):
        Workload(mix=(("fetch", 1.0),))
    with pytest.raises(ConfigurationError):
        Workload(mix=(("submit", 0.0),))
    with pytest.raises(ConfigurationError):
        Workload(tenants=(("alpha", -1.0),))
    with pytest.raises(ConfigurationError):
        Workload(instructions=0)


# ----------------------------------------------------------------------
# Cross-shard merge semantics
# ----------------------------------------------------------------------


def _latency_document(latencies) -> dict:
    registry = MetricsRegistry()
    summary = registry.summary("repro_service_seconds", "s")
    for value in latencies:
        summary.record(value)
    return registry.as_document()


def test_merged_summary_is_the_union_histogram() -> None:
    # Skewed shards: one fast and busy, one slow and quiet.  Averaging their
    # p99s weighted by count would report about 0.14 s.
    fast = [0.01] * 97 + [0.02] * 3
    slow = [4.0] * 3
    merged = merge_metrics_documents([_latency_document(fast), _latency_document(slow)])
    (sample,) = merged.as_document()["metrics"][0]["samples"]
    union = LogHistogram()
    for value in fast + slow:
        union.record(value)
    assert sample["buckets"] == union.as_sample()["buckets"]
    assert (sample["count"], sample["min"], sample["max"]) == (103, 0.01, 4.0)
    assert sample["sum"] == pytest.approx(union.total)
    # The merged p99 is the union's: 3 of 103 samples took four seconds.
    assert sample["p99"] == union.quantile(0.99) == 4.0
    assert sample["p50"] == union.quantile(0.50)


_SHARD_TENANCY = TenancyConfig(tenants=(TenantSpec("alpha", weight=2.0), TenantSpec("beta")))


def _shard_document(dispatched: dict, rejected: int = 0) -> dict:
    """One shard's metrics document after dispatching ``dispatched[tenant]``
    jobs per tenant and rejecting ``rejected`` of beta's for capacity."""
    manager = JobManager(workers=2, queue_limit=100, tenancy=_SHARD_TENANCY)
    for offset, (name, count) in enumerate(dispatched.items()):
        for index in range(count):
            manager.submit(JobRequest(figure="sec52", seed=100 * offset + index), tenant=name)
    while manager.scheduler.pick() is not None:
        pass
    for name, count in dispatched.items():
        for _ in range(count):
            manager.scheduler.accounting(name).queue_wait.record(0.1)
    if rejected:
        manager.scheduler.accounting("beta").inc("rejected_capacity", rejected)
    # Through JSON as on the wire, which sorts every object's keys.
    return json.loads(json.dumps(manager.metrics.as_document(), sort_keys=True))


def test_merge_stats_documents_sums_and_recomputes_shares() -> None:
    merged = group_stats_document(
        [
            (0, _shard_document({"alpha": 4, "beta": 2})),
            (1, _shard_document({"alpha": 2, "beta": 2}, rejected=1)),
        ],
        _SHARD_TENANCY,
        expected=2,
    )
    assert merged["schema_version"] == 2
    assert merged["totals"]["submitted"] == 10
    assert merged["totals"]["rejections"]["overloaded"] == 1
    shards = merged["shards"]
    # Uptime is the oldest shard's, not a sum.
    assert merged["uptime_seconds"] == max(entry["uptime_seconds"] for entry in shards["per_shard"])
    assert merged["queue"]["workers"] == 4
    assert merged["queue"]["running"] == 10
    # Work shares are exact: recomputed over the summed dispatch counts.
    assert merged["tenants"]["alpha"]["work_share"] == pytest.approx(0.6)
    assert merged["tenants"]["beta"]["work_share"] == pytest.approx(0.4)
    assert merged["tenants"]["alpha"]["jobs"]["dispatched"] == 6
    assert merged["tenants"]["alpha"]["inflight"] == 6
    assert merged["tenants"]["alpha"]["weight"] == 2.0
    assert merged["tenants"]["alpha"]["queue_wait_seconds"]["count"] == 6
    assert shards["count"] == 2 and shards["responding"] == 2
    assert [entry["shard"] for entry in shards["per_shard"]] == [0, 1]
    assert [entry["submitted"] for entry in shards["per_shard"]] == [6, 4]


def test_merge_stats_documents_reports_partial_merges() -> None:
    merged = group_stats_document(
        [(0, _shard_document({"alpha": 4}))], _SHARD_TENANCY, expected=2
    )
    assert merged["shards"] == {
        "count": 2,
        "responding": 1,
        "per_shard": merged["shards"]["per_shard"],
    }
    assert merged["totals"]["submitted"] == 4


def test_merge_metrics_documents_by_type_and_labels() -> None:
    def doc(uptime, submitted, latencies):
        registry = MetricsRegistry()
        registry.gauge("repro_uptime_seconds", "up").set(uptime)
        jobs = registry.counter("repro_jobs_submitted", "j", ("tenant",))
        jobs.labels("alpha").inc(submitted)
        jobs.labels("beta").inc()
        summary = registry.summary("repro_service_seconds", "s")
        for value in latencies:
            summary.record(value)
        return registry.as_document()

    merged = merge_metrics_documents([doc(12.0, 3.0, [0.5] * 4), doc(7.0, 2.0, [0.5] * 5 + [1.0])])
    families = {family["name"]: family for family in merged.as_document()["metrics"]}
    # Uptime merges by max (a property of the group, not a sum).
    assert families["repro_uptime_seconds"]["samples"][0]["value"] == 12.0
    # Counters sum per label set.
    by_labels = {
        tuple(sorted(sample["labels"].items())): sample["value"]
        for sample in families["repro_jobs_submitted"]["samples"]
    }
    assert by_labels[(("tenant", "alpha"),)] == 5.0
    assert by_labels[(("tenant", "beta"),)] == 2.0
    # Summaries add their buckets.
    summary = families["repro_service_seconds"]["samples"][0]
    assert summary["count"] == 10 and summary["max"] == 1.0
    # The merged registry renders like any live one.
    text = merged.render_text()
    assert "# TYPE repro_jobs_submitted counter" in text
    assert 'repro_jobs_submitted{tenant="alpha"} 5' in text
    assert 'repro_service_seconds{quantile="0.5"} 0.5' in text
    assert "repro_service_seconds_count 10" in text
    assert "repro_service_seconds_sum 5.5" in text


def test_shard_port_layout() -> None:
    assert shard_port(8080, 0) == 8081
    assert shard_ports(8080, 3) == [8081, 8082, 8083]


# ----------------------------------------------------------------------
# Loadbench config and gate
# ----------------------------------------------------------------------


def test_loadbench_config_validation_and_workload() -> None:
    with pytest.raises(ConfigurationError):
        LoadBenchConfig(clients=())
    with pytest.raises(ConfigurationError):
        LoadBenchConfig(shards=0)
    with pytest.raises(ConfigurationError):
        LoadBenchConfig(tenant_mix=(("alpha", 2.0),))  # a mix of one is no mix
    config = LoadBenchConfig(tenant_mix=(("alpha", 3.0), ("beta", 1.0)))
    assert config.expected_shares() == {"alpha": 0.75, "beta": 0.25}
    # The driver offers EQUAL per-tenant traffic; the weighted shares must
    # come from the server's scheduler, or the check proves nothing.
    assert config.workload().tenants == (("alpha", 1.0), ("beta", 1.0))
    assert config.stage_duration() == pytest.approx(config.epochs * config.epoch_seconds)


def test_git_revision_is_the_package_checkout_not_the_cwd(tmp_path, monkeypatch):
    """Artifacts record the revision of the repro code itself, even when the
    harness runs from an unrelated directory (or an unrelated repo)."""
    import subprocess

    from _helpers import REPO_ROOT

    expected = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    # From an unrelated plain directory -- and from an unrelated *git repo*
    # -- the resolved revision must still be this package's checkout.
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    subprocess.run(["git", "init", "-q", str(foreign)], check=True)
    for where in (tmp_path, foreign):
        monkeypatch.chdir(where)
        assert _git_revision() == expected


def _gate_artifact(throughput: float, p99_ms: float, share_error=None) -> dict:
    stage = {
        "clients": 2,
        "series": {
            "measured": {
                "throughput_rps": throughput,
                "endpoints": {
                    "submit": {"requests": 10, "errors": 0, "p99_ms": p99_ms}
                },
            }
        },
    }
    if share_error is not None:
        stage["tenant_shares"] = {"expected": {}, "observed": {},
                                  "max_abs_error": share_error}
    return {"stages": [stage]}


def test_gate_thresholds() -> None:
    ok, lines = evaluate_loadbench_gate(
        _gate_artifact(5.0, 400.0, share_error=0.05),
        min_throughput=1.0, max_p99_ms=1000.0, share_tolerance=0.1,
    )
    assert ok and len(lines) == 3
    ok, _ = evaluate_loadbench_gate(_gate_artifact(0.5, 400.0), min_throughput=1.0)
    assert not ok
    ok, _ = evaluate_loadbench_gate(_gate_artifact(5.0, 2000.0), max_p99_ms=1000.0)
    assert not ok
    # A share tolerance against a run without a tenant mix must fail loudly,
    # not silently pass a check that never ran.
    ok, lines = evaluate_loadbench_gate(_gate_artifact(5.0, 400.0), share_tolerance=0.1)
    assert not ok and "no tenant mix" in lines[-1]
    ok, lines = evaluate_loadbench_gate({"stages": []})
    assert not ok
    # Zero thresholds disable every check.
    ok, lines = evaluate_loadbench_gate(_gate_artifact(0.0, 1e9))
    assert ok and lines == []


def test_gate_fails_on_stage_without_submits() -> None:
    artifact = _gate_artifact(5.0, 400.0)
    artifact["stages"][0]["series"]["measured"]["endpoints"] = {}
    ok, lines = evaluate_loadbench_gate(artifact, max_p99_ms=1000.0)
    assert not ok and "no submit requests" in lines[0].replace("\n", " ")


# ----------------------------------------------------------------------
# Two in-process shards over real HTTP: proxying and aggregation
# ----------------------------------------------------------------------


@pytest.fixture()
def shard_pair(tmp_path):
    """Two ReproService shards of one group, each on its own loop thread."""
    from repro.service.client import ServiceClient
    from repro.service.server import ReproService, ServiceConfig

    base = _free_port_block(3)
    services, loops, threads = [], [], []
    try:
        for index in range(2):
            config = ServiceConfig(
                host="127.0.0.1",
                port=base,
                cache_dir=str(tmp_path / "cache"),  # shared, like real shards
                workers=1,
                sim_jobs=1,
                queue_limit=8,
                history_limit=64,
                shard_index=index,
                shard_count=2,
            )
            loop = asyncio.new_event_loop()
            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            service = ReproService(config)
            asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=10)
            services.append(service)
            loops.append(loop)
            threads.append(thread)
        clients = [
            ServiceClient(f"http://127.0.0.1:{shard_port(base, index)}", timeout=30.0)
            for index in range(2)
        ]
        yield services, clients
    finally:
        for service, loop, thread in zip(services, loops, threads):
            asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()


def test_sharded_service_proxies_and_aggregates(shard_pair) -> None:
    from _helpers import TEST_INSTRUCTIONS, TEST_SEED

    from repro.exp.runner import SimJob
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_fp_suite

    services, clients = shard_pair
    job = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    receipt = clients[0].submit(cases=[job])
    assert receipt.job_id.startswith("job-s0-")
    completed = clients[0].wait(
        receipt.job_id, timeout=120.0, request_key=receipt.request_key
    )
    assert completed["status"] == "completed"
    # Shard 1 does not own the job but proxies the poll to shard 0.
    proxied = clients[1].status(receipt.job_id)
    assert proxied["status"] == "completed"
    assert proxied["job_id"] == receipt.job_id
    # A result lookup on the non-owning shard fans out to its peers.
    assert clients[1].result(receipt.request_key) == completed["result"]
    # Either shard serves the merged stats document for the whole group.
    stats = clients[1].stats()
    assert stats["shards"]["count"] == 2
    assert stats["shards"]["responding"] == 2
    assert stats["totals"]["submitted"] == 1
    assert stats["totals"]["completed"] == 1
    # The merged metrics text carries group-wide counters.
    merged_metrics = clients[1].metrics()
    families = {family["name"] for family in merged_metrics["metrics"]}
    assert "repro_uptime_seconds" in families


def _quick_job():
    from _helpers import TEST_INSTRUCTIONS, TEST_SEED

    from repro.exp.runner import SimJob
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_fp_suite

    return SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)


def test_proxied_long_poll_outlasts_the_peer_fetch_timeout(shard_pair, monkeypatch) -> None:
    """A long poll on the non-owning shard carries its wait to the owner,
    and the peer fetch waits that much longer than the plain timeout."""
    services, clients = shard_pair
    monkeypatch.setattr("repro.service.server.PEER_FETCH_TIMEOUT", 0.3)
    services[0].manager.pre_execute = lambda _state: time.sleep(1.0)
    receipt = clients[0].submit(cases=[_quick_job()])
    view = clients[1].wait(receipt.job_id, timeout=60.0)
    assert view["status"] == "completed"
    # One GET from the client, passed on as one GET to the owner.
    assert status_polls(services[1]) == 1
    assert status_polls(services[0]) == 1
    assert services[1]._peer_failures.get(0, 0) == 0
    suspect = services[1].metrics.series("repro_peer_suspect")
    assert all(child.value == 0 for child in suspect.values())


def test_proxied_poll_query_cannot_inject_header_lines(shard_pair, monkeypatch) -> None:
    from repro.service import server

    services, clients = shard_pair
    receipt = clients[0].submit(cases=[_quick_job()])
    clients[0].wait(receipt.job_id, timeout=120.0)
    paths = []
    fetch_json = server.fetch_json

    async def capture(host, port, path, *args, **kwargs):
        paths.append(path)
        return await fetch_json(host, port, path, *args, **kwargs)

    monkeypatch.setattr(server, "fetch_json", capture)
    status, body = clients[1]._request(
        "GET", f"/v1/jobs/{receipt.job_id}?result=1%20HTTP/1.1%0D%0AX-Injected:%20yes"
    )
    assert status == 200
    assert body["payload"]["status"] == "completed"
    assert len(paths) == 1
    assert "\r" not in paths[0] and "\n" not in paths[0], paths[0]


def test_peer_calls_carry_the_callers_trace_id(shard_pair, monkeypatch) -> None:
    """A proxied poll, the merged stats and the results fallback each call
    the peer with the caller's trace ID, so the owner logs under it."""
    from repro.service import server

    services, clients = shard_pair
    receipt = clients[0].submit(cases=[_quick_job()])
    clients[0].wait(receipt.job_id, timeout=120.0)
    calls = []
    fetch_json = server.fetch_json

    async def capture(host, port, path, *args, **kwargs):
        calls.append((path, dict(kwargs.get("headers", ()))))
        return await fetch_json(host, port, path, *args, **kwargs)

    monkeypatch.setattr(server, "fetch_json", capture)
    for path in (
        f"/v1/jobs/{receipt.job_id}",
        "/v1/stats",
        f"/v1/results/{receipt.request_key}",
    ):
        status, _body = clients[1]._request("GET", path, trace_id="caller-trace-1")
        assert status == 200, path
    assert len(calls) == 3, calls
    for path, headers in calls:
        assert headers.get(TRACE_ID_HEADER) == "caller-trace-1", (path, headers)


def test_peer_result_lookup_cannot_inject_header_lines(shard_pair, monkeypatch) -> None:
    from repro.service import server

    _services, clients = shard_pair
    paths = []
    fetch_json = server.fetch_json

    async def capture(host, port, path, *args, **kwargs):
        paths.append(path)
        return await fetch_json(host, port, path, *args, **kwargs)

    monkeypatch.setattr(server, "fetch_json", capture)
    status, body = clients[1]._request("GET", "/v1/results/abc%0D%0AX-Injected:%20yes")
    assert status == 404
    assert body["payload"]["code"] == "not_found"
    assert len(paths) == 1
    assert "\r" not in paths[0] and "\n" not in paths[0], paths[0]


def test_proxied_poll_ignores_a_job_id_with_a_trailing_newline(
    shard_pair, monkeypatch
) -> None:
    from repro.service import server

    services, clients = shard_pair
    dialled = []

    async def no_dial(*args, **kwargs):
        dialled.append(args)
        raise AssertionError("the peer was dialled")

    monkeypatch.setattr(server, "fetch_json", no_dial)
    status, body = clients[1]._request("GET", "/v1/jobs/job-s0-000001%0A")
    assert status == 404
    assert body["payload"]["code"] == "not_found"
    assert dialled == []


def test_stopping_shard_answers_its_held_proxied_poll(shard_pair) -> None:
    """A shard that stops while it holds a proxied long poll answers it
    with 503 at once: it can no longer tell the owner's job status."""
    services, clients = shard_pair
    started, release = threading.Event(), threading.Event()

    def gate(_state):
        started.set()
        release.wait(timeout=30)

    services[0].manager.pre_execute = gate
    receipt = clients[0].submit(cases=[_quick_job()])
    assert started.wait(timeout=10)
    answers = []

    def poll():
        status, body = clients[1]._request("GET", f"/v1/jobs/{receipt.job_id}?wait=20")
        answers.append((status, body["payload"].get("code")))

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        deadline = time.monotonic() + 10
        while not services[0]._held_polls:
            assert time.monotonic() < deadline, "the owner never held the poll"
            time.sleep(0.01)
        loop = services[1].manager._worker_tasks[0].get_loop()
        began = time.monotonic()
        asyncio.run_coroutine_threadsafe(services[1].stop(), loop).result(timeout=30)
        stopped_in = time.monotonic() - began
        poller.join(timeout=30)
    finally:
        release.set()
    assert not poller.is_alive()
    assert stopped_in < 2.0
    assert answers == [(503, "draining")]


def test_a_poll_for_a_suspect_owners_job_is_503_and_wait_retries(
    shard_pair, monkeypatch
) -> None:
    """While shard 1 holds shard 0 suspect, a poll for shard 0's job through
    shard 1 is not "unknown job": it answers 503 ``peer_unavailable`` with a
    Retry-After, and ``ServiceClient.wait`` polls again within its budget."""
    import urllib.error
    import urllib.request

    from _helpers import TEST_INSTRUCTIONS, TEST_SEED

    from repro.exp.runner import SimJob
    from repro.service import server
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_fp_suite

    monkeypatch.setattr(server, "SUSPECT_RETRY_SECONDS", 1.0)
    services, clients = shard_pair
    job = SimJob(fmc_hash(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED + 70)
    receipt = clients[0].submit(cases=[job])
    assert receipt.job_id.startswith("job-s0-")
    clients[0].wait(receipt.job_id, timeout=120)
    for _ in range(server.SUSPECT_AFTER):
        services[1]._peer_failed(0)

    url = f"{clients[1].base_url}/v1/jobs/{receipt.job_id}"
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(url, timeout=10)
    with info.value as answer:
        assert answer.code == 503
        assert int(answer.headers["Retry-After"]) >= 1
        body = json.loads(answer.read().decode("utf-8"))
    assert body["payload"]["code"] == "peer_unavailable"
    assert body["payload"]["retry_after"] >= 1

    view = clients[1].wait(receipt.job_id, timeout=30)
    assert view["status"] == "completed"
    assert view["job_id"] == receipt.job_id


def test_free_port_probe_closes_the_socket_of_a_taken_port(monkeypatch) -> None:
    """A candidate block with a taken port is skipped without leaking the
    socket whose bind() failed."""
    import gc
    import random
    import socket
    import warnings

    with socket.socket() as spare:
        spare.bind(("127.0.0.1", 0))
        free = spare.getsockname()[1]
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        candidates = iter([taken.getsockname()[1], free])
        monkeypatch.setattr(random.Random, "randrange", lambda self, low, high: next(candidates))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _free_port_block(1) == free
            gc.collect()
    assert not [warning for warning in caught if issubclass(warning.category, ResourceWarning)]
