"""Tests for multi-tenant admission, weighted fair scheduling and the v2 API.

Covers the tenancy ISSUE's acceptance surface:

* scheduler invariants -- stride shares track configured weights under
  saturation (within the 20% acceptance bound), the interactive lane never
  inverts behind batch work, per-tenant in-flight caps skip and resume, and
  an idle tenant rejoining starts at the current virtual time (no banked
  credit),
* admission -- per-tenant quota 429s that do not affect other tenants,
  cross-tenant coalescing into one execution, closed-roster rejection,
* the v2 wire schema -- the retired v1 envelopes rejected, envelope/payload
  conflicts rejected, structured error codes shared by server and client,
* the client -- connection-level tenant/token, keyword-only ``submit``, and
  ``GET /v1/stats``,
* starvation -- a greedy tenant flooding the batch lane cannot starve a
  light tenant's interactive submission (bounded wall clock, both tenants
  reported by ``/v1/stats``).

Scheduler and JobManager tests run synchronously (no event loop, workers
never started) so dispatch order is deterministic; HTTP tests reuse the
in-process server from ``test_service``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from test_service import WAIT_TIMEOUT, running_service

from repro.common.errors import (
    ConfigurationError,
    ErrorCode,
    ServiceError,
    ServiceOverloadedError,
)
from repro.common.serialize import (
    WIRE_SCHEMA_VERSION,
    open_envelope,
    read_envelope,
    wire_envelope,
)
from repro.exp.request import JobRequest
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenancyConfig,
    TenantScheduler,
    TenantSpec,
    tenant_events,
    tenants_document,
)

#: Acceptance bound: observed work shares within 20% of configured weights.
SHARE_TOLERANCE = 0.20


def scheduler_for(*specs: TenantSpec) -> TenantScheduler:
    return TenantScheduler(TenancyConfig(tenants=tuple(specs)))


def request_for(tenant: str, seed: int, priority: str = "batch") -> JobRequest:
    """A distinct-key figure request charged to ``tenant``."""
    return JobRequest(figure="sec52", seed=seed, tenant=tenant, priority=priority)


# ----------------------------------------------------------------------
# Tenant configuration
# ----------------------------------------------------------------------


def test_tenant_spec_validation() -> None:
    assert TenantSpec("alpha").weight == 1.0
    with pytest.raises(ConfigurationError):
        TenantSpec("alpha", weight=0.0)
    with pytest.raises(ConfigurationError):
        TenantSpec("alpha", max_queued=0)
    with pytest.raises(ConfigurationError):
        TenantSpec("alpha", max_inflight=-1)
    with pytest.raises(ConfigurationError):
        TenantSpec("alpha", token="")
    with pytest.raises(ConfigurationError):
        TenantSpec("-leading-dash")
    with pytest.raises(ConfigurationError):
        TenantSpec("has spaces")
    with pytest.raises(ConfigurationError, match=r"tenant 'alpha': unknown settings \['wieght'\]"):
        TenancyConfig.from_dict({"tenants": {"alpha": {"wieght": 2.0}}})  # typo'd setting


def test_tenancy_config_from_file(tmp_path) -> None:
    path = tmp_path / "tenants.json"
    path.write_text(
        json.dumps(
            {
                "tenants": {
                    "alpha": {"weight": 3, "max_queued": 4, "token": "s3cret"},
                    "beta": {},
                },
                "default_tenant": "beta",
            }
        )
    )
    config = TenancyConfig.from_file(str(path))
    assert config.default_tenant == "beta"
    assert config.allow_unknown is True
    alpha = config.spec_for("alpha")
    assert (alpha.weight, alpha.max_queued, alpha.token) == (3.0, 4, "s3cret")
    # Open roster: unknown names resolve to default limits.
    assert config.spec_for("ghost") == TenantSpec("ghost")
    with pytest.raises(ConfigurationError, match="cannot read"):
        TenancyConfig.from_file(str(tmp_path / "missing.json"))
    path.write_text("{ not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        TenancyConfig.from_file(str(path))


@pytest.mark.parametrize(
    "document, match",
    [
        ({"allow_unknown": "false"}, "allow_unknown: expected bool, got str 'false'"),
        ({"default_tenant": 7}, "default_tenant: expected str, got int 7"),
        (
            {"tenants": {"alpha": {"max_queued": "3"}}},
            "tenant 'alpha': max_queued: expected int, got str '3'",
        ),
        (
            {"tenants": {"alpha": {"max_queued": 2.5}}},
            "tenant 'alpha': max_queued: expected int, got float 2.5",
        ),
        (
            {"tenants": {"alpha": {"max_inflight": True}}},
            "tenant 'alpha': max_inflight: expected int, got bool True",
        ),
        ({"tenants": {"alpha": {"weight": "x"}}}, "'alpha': weight: expected float, got str 'x'"),
        ({"tenants": {"alpha": {"token": 5}}}, "tenant 'alpha': token: expected str, got int 5"),
        ({"tenants": {"alpha": 5}}, "tenant 'alpha' wants a settings mapping, got int 5"),
        ({"tenants": {"alpha": {"weight": 0}}}, "tenant 'alpha': weight must be positive"),
        ({"tenants": {"alpha": {"name": "beta"}}}, r"tenant 'alpha': unknown settings \['name'\]"),
    ],
    ids=[
        "str-allow-unknown", "int-default", "str-quota", "float-quota", "bool-quota",
        "str-weight", "int-token", "int-settings", "zero-weight", "name-setting",
    ],
)
def test_roster_refuses_mistyped_values_naming_tenant_and_field(document, match) -> None:
    """Nothing is coerced: a string, float or boolean where an integer or
    boolean belongs is refused, and so are settings that are not a mapping;
    the error names the tenant and the field."""
    with pytest.raises(ConfigurationError, match=match):
        TenancyConfig.from_dict(document)


def test_roster_decodes_the_documented_rosters() -> None:
    """The rosters the docs and CI write decode to the objects they describe."""
    documented = TenancyConfig.from_dict(
        {
            "tenants": {
                "alice": {"weight": 3, "max_queued": 16, "max_inflight": 2, "token": "s3cret"},
                "bob": {"weight": 1},
            },
            "default_tenant": "default",
            "allow_unknown": True,
        }
    )
    assert documented == TenancyConfig(
        tenants=(
            TenantSpec("alice", weight=3.0, max_queued=16, max_inflight=2, token="s3cret"),
            TenantSpec("bob"),
        ),
    )
    assert TenancyConfig.from_dict({}) == TenancyConfig.open()
    closed = TenancyConfig.from_dict(
        {
            "tenants": {"alpha": {"token": "s3cret"}},
            "default_tenant": "alpha",
            "allow_unknown": False,
        }
    )
    with pytest.raises(ConfigurationError, match="unknown tenant 'mallory'"):
        closed.spec_for("mallory")


def test_tenancy_config_validation() -> None:
    with pytest.raises(ConfigurationError, match="duplicate"):
        TenancyConfig(tenants=(TenantSpec("a"), TenantSpec("a")))
    with pytest.raises(ConfigurationError, match="unknown tenancy settings"):
        TenancyConfig.from_dict({"tenant": {}})
    # A closed roster must include the default tenant ...
    with pytest.raises(ConfigurationError, match="default tenant"):
        TenancyConfig(tenants=(TenantSpec("alpha"),), allow_unknown=False)
    # ... and rejects unconfigured names at resolution time.
    closed = TenancyConfig(
        tenants=(TenantSpec(DEFAULT_TENANT), TenantSpec("alpha")), allow_unknown=False
    )
    with pytest.raises(ConfigurationError, match="unknown tenant"):
        closed.spec_for("ghost")


def test_tenant_latency_snapshot_percentiles() -> None:
    accounting = scheduler_for(TenantSpec("alpha")).accounting("alpha")
    window = accounting.queue_wait
    assert window.snapshot() == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0
    }
    for value in range(1, 101):
        window.record(float(value))
    snap = window.snapshot()
    assert snap["count"] == 100
    assert snap["mean"] == pytest.approx(50.5)
    assert snap["max"] == 100.0
    # Each percentile is the exact nearest-rank sample's bucket bound:
    # never below it and within one 2**(1/8) bucket above it.
    for field, exact in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
        assert exact <= snap[field] <= exact * 2 ** (1 / 8)
    # The whole lifetime counts: no window forgets the early samples.
    for value in (1.0,) * 4 + (9.0,) * 4:
        accounting.service_time.record(value)
    assert accounting.service_time.count == 8
    assert accounting.service_time.quantile(0.50) == 1.0


# ----------------------------------------------------------------------
# Scheduler invariants
# ----------------------------------------------------------------------


def drain(scheduler: TenantScheduler, picks: int) -> list:
    """Dispatch+complete ``picks`` items, returning the tenant order."""
    order = []
    for _ in range(picks):
        picked = scheduler.pick()
        assert picked is not None, f"scheduler ran dry after {len(order)} picks"
        order.append(picked[0])
        scheduler.release(picked[0])
    return order


def test_stride_shares_track_weights_under_saturation() -> None:
    """With both queues saturated, a 3:1 weight ratio yields 3:1 dispatches."""
    scheduler = scheduler_for(TenantSpec("alpha", weight=3.0), TenantSpec("beta", weight=1.0))
    for index in range(12):
        scheduler.enqueue("alpha", "batch", ("alpha", index))
        scheduler.enqueue("beta", "batch", ("beta", index))
    order = drain(scheduler, 8)
    tenants = tenants_document(scheduler.metrics, scheduler.tenancy)
    assert order.count("alpha") == 6 and order.count("beta") == 2
    assert abs(tenants["alpha"]["work_share"] - 0.75) <= SHARE_TOLERANCE * 0.75
    assert abs(tenants["beta"]["work_share"] - 0.25) <= SHARE_TOLERANCE * 0.25
    # Everything still drains once the backlog clears.
    drain(scheduler, 16)
    assert scheduler.pick() is None
    assert scheduler.queued_total() == 0


def test_interactive_lane_never_inverts_behind_batch() -> None:
    """All interactive work drains before any batch work, across tenants."""
    scheduler = scheduler_for(TenantSpec("alpha"), TenantSpec("beta"))
    for index in range(4):
        scheduler.enqueue("alpha", "batch", ("batch", index))
    scheduler.enqueue("beta", "interactive", ("interactive", 0))
    scheduler.enqueue("alpha", "interactive", ("interactive", 1))
    picked = [scheduler.pick()[1][0] for _ in range(6)]
    assert picked == ["interactive"] * 2 + ["batch"] * 4
    # A late interactive arrival still jumps the remaining batch backlog.
    scheduler.enqueue("alpha", "batch", ("batch", 99))
    scheduler.enqueue("beta", "interactive", ("interactive", 99))
    assert scheduler.pick()[1][0] == "interactive"


def test_max_inflight_cap_skips_and_resumes() -> None:
    scheduler = scheduler_for(TenantSpec("alpha", max_inflight=1), TenantSpec("beta"))
    scheduler.enqueue("alpha", "batch", "a1")
    scheduler.enqueue("alpha", "batch", "a2")
    scheduler.enqueue("beta", "batch", "b1")
    assert scheduler.pick() == ("alpha", "a1")
    # Alpha is at its cap: its remaining work is skipped, not the queue.
    assert scheduler.pick() == ("beta", "b1")
    assert scheduler.pick() is None
    assert scheduler.queued_total() == 1
    scheduler.release("alpha")
    assert scheduler.pick() == ("alpha", "a2")
    with pytest.raises(ConfigurationError, match="no in-flight"):
        scheduler.release("beta")
        scheduler.release("beta")


def test_idle_tenant_rejoins_at_virtual_time() -> None:
    """Sleeping banks no credit: a waking tenant shares, it does not burst."""
    scheduler = scheduler_for(TenantSpec("heavy"), TenantSpec("light"))
    for index in range(16):
        scheduler.enqueue("heavy", "batch", index)
    drain(scheduler, 10)  # heavy runs alone; virtual time advances
    for index in range(6):
        scheduler.enqueue("light", "batch", index)
    order = drain(scheduler, 6)
    # Equal weights from here on: an even split, not six straight "light"
    # picks repaying the idle period.
    assert order.count("light") == 3 and order.count("heavy") == 3


# ----------------------------------------------------------------------
# JobManager admission (synchronous: workers never started)
# ----------------------------------------------------------------------


def manager_for(config: TenancyConfig, queue_limit: int = 100) -> JobManager:
    return JobManager(cache=None, workers=1, queue_limit=queue_limit, tenancy=config)


def test_manager_fairness_shares_within_acceptance_bound() -> None:
    """Mid-saturation, /v1/stats work shares sit within 20% of the weights."""
    config = TenancyConfig(
        tenants=(TenantSpec("alpha", weight=3.0), TenantSpec("beta", weight=1.0))
    )
    manager = manager_for(config)
    for index in range(16):
        manager.submit(request_for("alpha", seed=1000 + index))
        manager.submit(request_for("beta", seed=2000 + index))
    drain(manager.scheduler, 12)  # both tenants still saturated afterwards
    stats = manager.stats_document()
    tenants = stats["tenants"]
    assert abs(tenants["alpha"]["work_share"] - 0.75) <= SHARE_TOLERANCE * 0.75
    assert abs(tenants["beta"]["work_share"] - 0.25) <= SHARE_TOLERANCE * 0.25
    assert tenants["alpha"]["weight"] == 3.0
    assert stats["queue"]["depth"] == manager.scheduler.queued_total()
    assert stats["totals"]["submitted"] == 32


def test_tenant_quota_429_does_not_affect_other_tenants() -> None:
    config = TenancyConfig(tenants=(TenantSpec("alpha", max_queued=2), TenantSpec("beta")))
    manager = manager_for(config, queue_limit=8)
    manager.submit(request_for("alpha", seed=1))
    manager.submit(request_for("alpha", seed=2))
    with pytest.raises(ServiceOverloadedError) as excinfo:
        manager.submit(request_for("alpha", seed=3))
    error = excinfo.value
    assert error.code is ErrorCode.TENANT_QUOTA_EXCEEDED
    assert error.tenant == "alpha"
    assert error.retry_after >= 1
    # Beta is untouched by alpha's quota ...
    state, coalesced = manager.submit(request_for("beta", seed=10))
    assert not coalesced and state.tenant == "beta"
    # ... until the server-wide bound trips, which reports `overloaded`.
    for index in range(5):
        manager.submit(request_for("beta", seed=11 + index))
    with pytest.raises(ServiceOverloadedError) as excinfo:
        manager.submit(request_for("beta", seed=99))
    assert excinfo.value.code is ErrorCode.OVERLOADED
    totals = manager.stats_document()["totals"]
    assert totals["rejections"] == {"overloaded": 1, "tenant_quota_exceeded": 1}
    events = tenant_events(manager.metrics)
    assert events["alpha"]["rejected_quota"] == 1
    assert events["beta"]["rejected_capacity"] == 1
    health = manager.health()
    assert health["rejections"] == {"overloaded": 1, "tenant_quota_exceeded": 1}
    assert health["tenants"]["alpha"]["rejected"] == 1


def test_cross_tenant_submissions_coalesce_to_one_execution() -> None:
    manager = manager_for(TenancyConfig.open())
    first, coalesced = manager.submit(request_for("alpha", seed=5))
    assert not coalesced
    # Identical work from a different tenant (and lane) shares the job: the
    # coalescing key deliberately excludes the admission metadata.
    second, coalesced = manager.submit(request_for("beta", seed=5, priority="interactive"))
    assert coalesced and second is first
    assert first.tenant == "alpha"  # the first submitter owns the job
    totals = manager.stats_document()["totals"]
    assert totals["submitted"] == 1 and totals["coalesced"] == 1
    events = tenant_events(manager.metrics)
    assert events["beta"]["coalesced"] == 1
    assert events["alpha"]["admitted"] == 1
    # Coalesced submissions bypass quotas: they add no work.
    tight = TenancyConfig(tenants=(TenantSpec("gamma", max_queued=1),))
    tight_manager = manager_for(tight)
    tight_manager.submit(request_for("gamma", seed=7))
    _, coalesced = tight_manager.submit(request_for("gamma", seed=7))
    assert coalesced


def test_closed_roster_rejects_unknown_tenant_as_config_error() -> None:
    config = TenancyConfig(
        tenants=(TenantSpec(DEFAULT_TENANT), TenantSpec("alpha")), allow_unknown=False
    )
    manager = manager_for(config)
    with pytest.raises(ConfigurationError, match="unknown tenant"):
        manager.submit(request_for("ghost", seed=1))
    manager.submit(request_for("alpha", seed=1))  # configured names still work


def test_lane_resolution_and_retry_after_hint() -> None:
    manager = manager_for(TenancyConfig.open())
    assert manager.resolve_lane(JobRequest(figure="fig7")) == "interactive"
    assert manager.resolve_lane(JobRequest(figure="fig7", full=True)) == "batch"
    assert manager.resolve_lane(JobRequest(figure="fig7", full=True, priority="interactive")) == (
        "interactive"
    )
    # No service-time history yet: a minimal, honest hint.
    assert manager.retry_after_hint(5) == 1
    manager.scheduler.accounting("alpha").service_time.record(2.0)
    assert manager.retry_after_hint(3) == 6  # ceil(2.0s * 3 ahead / 1 worker)
    assert manager.retry_after_hint(1000) == 60  # clamped


# ----------------------------------------------------------------------
# Wire schema v2
# ----------------------------------------------------------------------


def test_v2_envelope_roundtrip_and_v1_still_readable() -> None:
    envelope = wire_envelope(
        "job_request", {"figure": "fig7"}, tenant="alpha", priority="interactive", schema_version=2
    )
    assert envelope["wire_schema"] == WIRE_SCHEMA_VERSION
    read = read_envelope(json.loads(json.dumps(envelope)), "job_request")
    assert (read.tenant, read.priority, read.schema_version) == ("alpha", "interactive", 2)
    # Version 1 is retired: it is rejected like any other unknown version.
    v1 = {"kind": "job_request", "wire_schema": 1, "payload": {"figure": "fig7"}}
    for version in (1, 999):
        with pytest.raises(ConfigurationError, match="unsupported wire schema"):
            read_envelope({**v1, "wire_schema": version}, "job_request")


def post_raw(base_url: str, body: dict, headers: dict = ()) -> tuple:
    """POST a raw envelope to /v1/jobs; returns (status, parsed body)."""
    request = urllib.request.Request(
        f"{base_url}/v1/jobs",
        data=json.dumps(body).encode(),
        method="POST",
        headers={"Content-Type": "application/json", **dict(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def stub_execution(svc, seconds: float = 0.0) -> None:
    """Replace real simulation with a trivial payload (admission tests only)."""

    def fake_execute(state):
        if seconds:
            time.sleep(seconds)
        return {"stubbed": True}

    svc.manager._execute = fake_execute


def test_http_v2_tenant_priority_roundtrip_and_stats(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (svc, client):
        stub_execution(svc)
        tenant_client = ServiceClient(client.base_url, timeout=30.0, tenant="alpha")
        receipt = tenant_client.submit(
            figure="sec52", instructions=600, seed=3, priority="interactive"
        )
        assert (receipt.tenant, receipt.priority) == ("alpha", "interactive")
        # Submission parameters are keyword-only.
        with pytest.raises(TypeError):
            tenant_client.submit("sec52")
        view = tenant_client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
        assert (view["tenant"], view["priority"]) == ("alpha", "interactive")
        # Header-only labelling (no envelope/payload field) also resolves.
        v2 = wire_envelope("job_request", {"figure": "sec52", "seed": 4})
        status, data = post_raw(client.base_url, v2, {"X-Repro-Tenant": "gamma"})
        assert status == 202
        assert open_envelope(data, "job_accepted")["tenant"] == "gamma"
        # Conflicting explicit labels are a 400, not a silent pick.
        conflicted = wire_envelope(
            "job_request", {"figure": "sec52", "seed": 5, "tenant": "left"}, tenant="right"
        )
        status, data = post_raw(client.base_url, conflicted)
        assert status == 400
        assert open_envelope(data, "error")["code"] == "bad_request"
        # /v1/stats reports every tenant that has contacted the server.
        stats = client.stats()
        assert set(stats["tenants"]) >= {"alpha", "gamma"}
        alpha = stats["tenants"]["alpha"]
        assert alpha["jobs"]["admitted"] == 1
        assert alpha["queued_by_lane"] == {"interactive": 0, "batch": 0}
        assert set(alpha["queue_wait_seconds"]) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert stats["totals"]["submitted"] >= 2


def test_tenant_auth_token_enforced(tmp_path) -> None:
    config = TenancyConfig(tenants=(TenantSpec("alpha", token="s3cret"),))
    with running_service(tmp_path / "cache", tenancy=config) as (svc, client):
        stub_execution(svc)
        url = client.base_url
        anonymous = ServiceClient(url, timeout=30.0, tenant="alpha")
        with pytest.raises(ServiceError, match="401"):
            anonymous.submit(figure="sec52", seed=6)
        wrong = ServiceClient(url, timeout=30.0, tenant="alpha", token="wrong")
        with pytest.raises(ServiceError, match="401"):
            wrong.submit(figure="sec52", seed=6)
        authed = ServiceClient(url, timeout=30.0, tenant="alpha", token="s3cret")
        assert authed.submit(figure="sec52", seed=6).tenant == "alpha"
        # Tenants without a configured token stay open.
        assert client.submit(figure="sec52", seed=7).tenant == DEFAULT_TENANT


def test_error_taxonomy_shared_by_server_and_client(tmp_path) -> None:
    with running_service(tmp_path / "cache", queue_limit=1) as (svc, client):
        started, release = threading.Event(), threading.Event()

        def fake_execute(state):
            started.set()
            release.wait(timeout=30)
            return {"stubbed": True}

        svc.manager._execute = fake_execute
        # Protocol-level errors carry structured codes.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.base_url}/v1/jobs/job-999999", timeout=10)
        assert open_envelope(json.load(excinfo.value), "error")["code"] == "not_found"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.base_url}/v1/jobs", timeout=10)
        assert open_envelope(json.load(excinfo.value), "error")["code"] == "method_not_allowed"
        # Admission rejections surface typed fields on the client exception.
        held = [client.submit(figure="sec52", seed=20)]
        assert started.wait(timeout=10)
        held.append(client.submit(figure="sec52", seed=21))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.submit(figure="sec52", seed=22)
        error = excinfo.value
        assert error.code is ErrorCode.OVERLOADED
        assert error.tenant == DEFAULT_TENANT
        assert isinstance(error.retry_after, (int, float)) and error.retry_after >= 1
        release.set()
        for receipt in held:
            client.wait(receipt.job_id, timeout=WAIT_TIMEOUT)


def test_greedy_tenant_cannot_starve_interactive_submissions(tmp_path) -> None:
    """The starvation acceptance test: alpha floods the batch lane, beta's
    interactive job still completes promptly and both tenants show up in
    ``/v1/stats``."""
    config = TenancyConfig(tenants=(TenantSpec("alpha"), TenantSpec("beta")))
    with running_service(tmp_path / "cache", queue_limit=64, tenancy=config) as (svc, client):
        gate_entered, release = threading.Event(), threading.Event()

        def fake_execute(state):
            if state.request.seed == 0:
                gate_entered.set()
                release.wait(timeout=30)
            time.sleep(0.03)
            return {"stubbed": True}

        svc.manager._execute = fake_execute
        alpha = ServiceClient(client.base_url, timeout=30.0, tenant="alpha")
        beta = ServiceClient(client.base_url, timeout=30.0, tenant="beta")
        # Occupy the single worker, then flood alpha's batch lane.
        flood = [alpha.submit(figure="sec52", seed=0, priority="batch")]
        assert gate_entered.wait(timeout=10)
        for seed in range(1, 16):
            flood.append(alpha.submit(figure="sec52", seed=seed, priority="batch"))
        beta_receipt = beta.submit(figure="sec52", seed=100, priority="interactive")
        release.set()
        start = time.monotonic()
        view = beta.wait(beta_receipt.job_id, timeout=WAIT_TIMEOUT)
        beta_wall = time.monotonic() - start
        assert view["status"] == "completed"
        # Beta finished while most of alpha's backlog was still queued: the
        # interactive lane jumped it past the flood.
        assert svc.manager.scheduler.runtime("alpha").queued() >= 8, (
            f"beta took {beta_wall:.2f}s but alpha's flood had already drained"
        )
        for receipt in flood:
            alpha.wait(receipt.job_id, timeout=WAIT_TIMEOUT)
        stats = client.stats()
        assert set(stats["tenants"]) >= {"alpha", "beta"}
        assert stats["tenants"]["beta"]["jobs"]["completed"] == 1
        assert stats["tenants"]["alpha"]["jobs"]["completed"] == 16
        # Beta's one interactive job waited far less than alpha's tail.
        beta_wait = stats["tenants"]["beta"]["queue_wait_seconds"]["max"]
        alpha_wait = stats["tenants"]["alpha"]["queue_wait_seconds"]["max"]
        assert beta_wait < alpha_wait
