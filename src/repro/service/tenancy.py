"""Multi-tenant admission, weighted fair scheduling and usage accounting.

This module is the service's resource-management layer.  It owns three
concerns, kept free of any HTTP or job-execution detail so they can be unit
tested in isolation:

* **Tenant configuration** -- :class:`TenantSpec` (weight, quotas, optional
  auth token) and :class:`TenancyConfig` (the named tenants, the default
  tenant, whether unknown names are admitted).  A config loads from a small
  JSON file (``repro serve --tenants tenants.json``); with no file the
  service runs *open*: every tenant name is accepted with default limits,
  and unlabelled submissions land on the ``default`` tenant -- exactly the
  pre-tenancy behaviour.

* **Weighted fair scheduling** -- :class:`TenantScheduler`, a stride
  scheduler over per-tenant queues.  Each tenant carries a *pass* value
  advanced by ``stride = STRIDE_SCALE / weight`` per dispatched job, and the
  runnable tenant with the smallest pass goes next -- so under saturation
  tenants receive work in proportion to their configured weights.  Two
  **priority lanes** sit above the weighting: every tenant has an
  ``interactive`` and a ``batch`` queue, and the scheduler drains all
  interactive work (weighted-fair among tenants) before any batch work, so
  short quick-suite jobs are never stuck behind a flooding campaign.  A
  tenant waking from idle has its pass forwarded to the current virtual
  time, so sleeping never banks credit that would later starve the others.

* **Usage and latency accounting** -- :class:`TenantAccounting`: per-tenant
  admission/rejection/completion counters, simulations executed vs cache
  hits, and queue-wait and service-time histograms.  The records live only
  in a :class:`~repro.obs.metrics.MetricsRegistry` (one family per concern,
  labelled by tenant), and :func:`tenant_events`, :func:`job_totals` and
  :func:`tenants_document` read them back -- from one server's registry or
  from the merge of every shard's -- so ``GET /v1/stats``, ``GET
  /v1/healthz``, the journal snapshot and the Prometheus exposition at
  ``GET /v1/metrics`` can never disagree.

All scheduler state is touched only from the server's event-loop thread
(submission and worker dispatch both happen there), so there is no locking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Mapping, Optional, Tuple, TypeVar

from repro.common.errors import ConfigurationError
from repro.common.serialize import from_jsonable, from_jsonable_section, read_json_file
from repro.exp.request import PRIORITY_LANES, validate_tenant_name
from repro.obs.metrics import LogHistogram, MetricsRegistry

_T = TypeVar("_T")

#: The tenant unlabelled submissions map to.
DEFAULT_TENANT = "default"

#: The two scheduling lanes, highest priority first (re-exported from the
#: request layer, which owns the wire vocabulary).
LANE_INTERACTIVE, LANE_BATCH = PRIORITY_LANES

#: Pass-value increment for a weight-1.0 tenant per dispatched job.  The
#: scale is arbitrary (only pass *ratios* matter); a round number keeps the
#: values readable in debugger sessions and stats dumps.
STRIDE_SCALE = 1_000_000.0

#: The registry families the per-tenant accounting lives in.
JOBS_METRIC = "repro_tenant_jobs_total"
SIMS_METRIC = "repro_tenant_simulations_total"
QUEUE_WAIT_METRIC = "repro_tenant_queue_wait_seconds"
SERVICE_METRIC = "repro_tenant_service_seconds"
QUEUED_METRIC = "repro_tenant_queued"
INFLIGHT_METRIC = "repro_tenant_inflight"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's configured identity: weight, quotas, optional token.

    ``None`` quotas mean "bounded only by the server-wide limits" -- the
    right default for a single-tenant deployment, where per-tenant admission
    must degenerate to the old global behaviour.
    """

    name: str
    #: Relative share of the worker pool under saturation.
    weight: float = 1.0
    #: Max jobs this tenant may have queued (excluding running); ``None`` =
    #: only the server-wide queue limit applies.
    max_queued: Optional[int] = None
    #: Max jobs this tenant may have running at once; ``None`` = only the
    #: worker count applies.
    max_inflight: Optional[int] = None
    #: Shared-secret auth token; when set, submissions for this tenant must
    #: carry ``Authorization: Bearer <token>``.
    token: Optional[str] = None

    def __post_init__(self) -> None:
        # The roster decoder prefixes each message with the tenant's name.
        validate_tenant_name(self.name)
        if not (self.weight > 0.0):
            raise ConfigurationError(f"weight must be positive, got {self.weight}")
        for attr in ("max_queued", "max_inflight"):
            value = getattr(self, attr)
            if value is not None and value < 1:
                raise ConfigurationError(f"{attr} must be >= 1, got {value}")
        if self.token is not None and (not isinstance(self.token, str) or not self.token):
            raise ConfigurationError("token must be a non-empty string")


@dataclass(frozen=True)
class TenancyConfig:
    """The server's tenant roster and admission policy."""

    tenants: Tuple[TenantSpec, ...] = ()
    default_tenant: str = DEFAULT_TENANT
    #: When ``True`` (the open, zero-config default) an unconfigured tenant
    #: name is admitted with default limits; when ``False`` it is a 400.
    allow_unknown: bool = True

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tenants]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate tenant names in config: {names}")
        validate_tenant_name(self.default_tenant)
        if not self.allow_unknown and self.default_tenant not in names:
            raise ConfigurationError(
                f"default tenant {self.default_tenant!r} must be configured when "
                "unknown tenants are rejected"
            )

    @classmethod
    def open(cls) -> "TenancyConfig":
        """The zero-config policy: any tenant, default limits, no auth."""
        return cls()

    @classmethod
    def from_dict(cls, data: Any) -> "TenancyConfig":
        """Decode a roster document, ``{"tenants": {name: settings}, ...}``.

        Decoding is strict (:func:`~repro.common.serialize.from_jsonable`):
        nothing is coerced, unknown keys are refused, and an error in a
        tenant's settings names the tenant and the setting.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"expected a tenancy config mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"tenants", "default_tenant", "allow_unknown"}
        if unknown:
            raise ConfigurationError(f"unknown tenancy settings {sorted(unknown)}")
        roster = data.get("tenants", {})
        if not isinstance(roster, Mapping):
            raise ConfigurationError("tenancy 'tenants' must be a mapping of name -> settings")
        tenants = tuple(
            from_jsonable_section(TenantSpec, settings, f"tenant {name!r}", name=name)
            for name, settings in roster.items()
        )
        return from_jsonable(cls, {**data, "tenants": tenants})

    @classmethod
    def from_file(cls, path: str) -> "TenancyConfig":
        return cls.from_dict(read_json_file(path, "tenants file"))

    def spec_for(self, name: str) -> TenantSpec:
        """Resolve a tenant name to its spec (default limits when open)."""
        validate_tenant_name(name)
        for spec in self.tenants:
            if spec.name == name:
                return spec
        if not self.allow_unknown:
            raise ConfigurationError(
                f"unknown tenant {name!r} (this server admits only configured tenants)"
            )
        return TenantSpec(name=name)


#: The per-tenant job lifecycle events :meth:`TenantAccounting.inc` accepts.
JOB_EVENTS = (
    "admitted",
    "coalesced",
    "rejected_quota",
    "rejected_capacity",
    "dispatched",
    "completed",
    "failed",
)


class TenantAccounting:
    """Write handles onto one tenant's series in a metrics registry.

    The registry is the only store; each instance holds the tenant's
    children of four families:

    * ``repro_tenant_jobs_total{tenant,event}`` -- job lifecycle counters,
    * ``repro_tenant_simulations_total{tenant,kind}`` -- executed vs
      cache-hit simulations,
    * ``repro_tenant_queue_wait_seconds{tenant}`` and
      ``repro_tenant_service_seconds{tenant}`` -- latency histograms.

    Writes go through :meth:`inc` / :meth:`add_sims` / ``queue_wait.record``;
    reports read the registry back (:func:`tenant_events`,
    :func:`tenants_document`).
    """

    __slots__ = ("_jobs", "_sims", "queue_wait", "service_time")

    def __init__(self, tenant: str, metrics: MetricsRegistry) -> None:
        jobs = metrics.counter(
            JOBS_METRIC, "Per-tenant job lifecycle events", ("tenant", "event")
        )
        self._jobs = {event: jobs.labels(tenant=tenant, event=event) for event in JOB_EVENTS}
        sims = metrics.counter(
            SIMS_METRIC,
            "Per-tenant simulations by outcome (executed vs cache hit)",
            ("tenant", "kind"),
        )
        self._sims = {
            kind: sims.labels(tenant=tenant, kind=kind) for kind in ("executed", "cache_hit")
        }
        self.queue_wait: LogHistogram = metrics.summary(
            QUEUE_WAIT_METRIC,
            "Seconds jobs waited in the tenant's queue before dispatch",
            ("tenant",),
        ).labels(tenant=tenant)
        self.service_time: LogHistogram = metrics.summary(
            SERVICE_METRIC, "Seconds jobs spent executing for this tenant", ("tenant",)
        ).labels(tenant=tenant)

    def inc(self, event: str, amount: int = 1) -> None:
        """Count one job lifecycle event (a :data:`JOB_EVENTS` member)."""
        self._jobs[event].inc(amount)

    def add_sims(self, executed: int, cache_hits: int) -> None:
        """Charge a finished job's simulation counts to the tenant."""
        if executed:
            self._sims["executed"].inc(executed)
        if cache_hits:
            self._sims["cache_hit"].inc(cache_hits)


class _TenantRuntime:
    """One tenant's live scheduler state (spec + queues + stride position)."""

    __slots__ = ("spec", "lanes", "inflight", "pass_value", "accounting")

    def __init__(self, spec: TenantSpec, metrics: MetricsRegistry) -> None:
        self.spec = spec
        self.lanes: Dict[str, Deque[Any]] = {lane: deque() for lane in PRIORITY_LANES}
        self.inflight = 0
        self.pass_value = 0.0
        self.accounting = TenantAccounting(spec.name, metrics)
        # Queue-state gauges read the live queues, so they can never drift.
        queued = metrics.gauge(
            QUEUED_METRIC, "Jobs queued per tenant and lane", ("tenant", "lane")
        )
        for lane, queue in self.lanes.items():
            queued.labels(tenant=spec.name, lane=lane).set_function(queue.__len__)
        metrics.gauge(
            INFLIGHT_METRIC, "Jobs executing per tenant", ("tenant",)
        ).labels(tenant=spec.name).set_function(lambda: self.inflight)

    @property
    def stride(self) -> float:
        return STRIDE_SCALE / self.spec.weight

    def queued(self) -> int:
        return sum(len(lane) for lane in self.lanes.values())

    def idle(self) -> bool:
        return self.inflight == 0 and self.queued() == 0

    def runnable_in(self, lane: str) -> bool:
        if not self.lanes[lane]:
            return False
        cap = self.spec.max_inflight
        return cap is None or self.inflight < cap


class TenantScheduler:
    """Stride-scheduled weighted fair queueing over per-tenant lanes.

    The scheduler stores opaque items (the job manager hands it
    ``JobState`` objects) and answers "whose turn is it?".  The caller owns
    dispatch and completion, calling :meth:`pick` / :meth:`release` around
    each execution.
    """

    def __init__(
        self, tenancy: TenancyConfig, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.tenancy = tenancy
        #: The registry every tenant's accounting reports into (a private
        #: one when the caller brings none, so standalone schedulers in
        #: tests never share counters).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tenants: Dict[str, _TenantRuntime] = {}
        #: Virtual time: the pass value of the most recent dispatch.  A
        #: tenant waking from idle starts here, not at its stale pass.
        self._virtual = 0.0
        # Materialise configured tenants eagerly so /v1/stats lists them
        # (with zeroed counters) before their first submission.
        for spec in tenancy.tenants:
            self._tenants[spec.name] = _TenantRuntime(spec, self.metrics)

    # -- tenant access -------------------------------------------------

    def runtime(self, name: str) -> _TenantRuntime:
        """The live state for ``name``, created on first contact."""
        runtime = self._tenants.get(name)
        if runtime is None:
            runtime = _TenantRuntime(self.tenancy.spec_for(name), self.metrics)
            self._tenants[name] = runtime
        return runtime

    def accounting(self, name: str) -> TenantAccounting:
        return self.runtime(name).accounting

    # -- queue state ---------------------------------------------------

    def queued_total(self) -> int:
        return sum(runtime.queued() for runtime in self._tenants.values())

    def inflight_total(self) -> int:
        return sum(runtime.inflight for runtime in self._tenants.values())

    # -- scheduling ----------------------------------------------------

    def enqueue(self, name: str, lane: str, item: _T) -> None:
        """Queue ``item`` on the tenant's lane (quota checks are the
        caller's job -- the scheduler never refuses work)."""
        if lane not in PRIORITY_LANES:
            raise ConfigurationError(f"unknown lane {lane!r}")
        runtime = self.runtime(name)
        if runtime.idle():
            # Forward an idle tenant to the current virtual time: sleeping
            # must not bank credit that would later monopolise the pool.
            runtime.pass_value = max(runtime.pass_value, self._virtual)
        runtime.lanes[lane].append(item)

    def pick(self) -> Optional[Tuple[str, Any]]:
        """Dispatch the next item, or ``None`` when nothing is runnable.

        All interactive work drains before any batch work; within a lane the
        runnable tenant with the smallest pass value wins (ties broken by
        name for determinism).  The winner's pass advances by its stride and
        its in-flight count is charged -- pair every pick with a
        :meth:`release`.
        """
        for lane in PRIORITY_LANES:
            best: Optional[_TenantRuntime] = None
            for name in sorted(self._tenants):
                runtime = self._tenants[name]
                if not runtime.runnable_in(lane):
                    continue
                if best is None or runtime.pass_value < best.pass_value:
                    best = runtime
            if best is not None:
                item = best.lanes[lane].popleft()
                self._virtual = max(self._virtual, best.pass_value)
                best.pass_value += best.stride
                best.inflight += 1
                best.accounting.inc("dispatched")
                return best.spec.name, item
        return None

    def release(self, name: str) -> None:
        """Return a dispatched job's in-flight slot (on completion/failure)."""
        runtime = self.runtime(name)
        if runtime.inflight <= 0:
            raise ConfigurationError(f"tenant {name!r} has no in-flight job to release")
        runtime.inflight -= 1


# -- reading the accounting back ------------------------------------------


def tenant_events(metrics: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """Every tenant's lifecycle counts (tenant -> event -> count)."""
    counts = metrics.series(JOBS_METRIC)
    return {
        tenant: {event: _read(counts, tenant, event) for event in JOB_EVENTS}
        for tenant in sorted({tenant for tenant, _ in counts})
    }


def job_totals(events: Mapping[str, Mapping[str, int]]) -> Dict[str, Any]:
    """The server-wide ``totals`` of ``GET /v1/stats``: tenant counts summed."""

    def total(event: str) -> int:
        return sum(counts.get(event, 0) for counts in events.values())

    return {
        "submitted": total("admitted"),
        "coalesced": total("coalesced"),
        "completed": total("completed"),
        "failed": total("failed"),
        "rejections": {
            "overloaded": total("rejected_capacity"),
            "tenant_quota_exceeded": total("rejected_quota"),
        },
    }


def tenants_document(metrics: MetricsRegistry, tenancy: TenancyConfig) -> Dict[str, Any]:
    """The per-tenant section of ``GET /v1/stats``.

    Counts, latency histograms and queue gauges come from ``metrics`` (one
    server's registry or the merge of every shard's); weights and quotas
    come from ``tenancy``.  Work shares are each tenant's fraction of all
    dispatched jobs.
    """
    events = tenant_events(metrics)
    sims = metrics.series(SIMS_METRIC)
    waits = metrics.series(QUEUE_WAIT_METRIC)
    services = metrics.series(SERVICE_METRIC)
    queued = metrics.series(QUEUED_METRIC)
    inflight = metrics.series(INFLIGHT_METRIC)
    dispatched = sum(counts["dispatched"] for counts in events.values())
    document: Dict[str, Any] = {}
    for name, counts in events.items():
        spec = tenancy.spec_for(name)
        by_lane = {lane: _read(queued, name, lane) for lane in PRIORITY_LANES}
        document[name] = {
            "jobs": counts,
            "sims": {
                "executed": _read(sims, name, "executed"),
                "cache_hits": _read(sims, name, "cache_hit"),
            },
            "queue_wait_seconds": waits.get((name,), LogHistogram()).snapshot(),
            "service_seconds": services.get((name,), LogHistogram()).snapshot(),
            "weight": spec.weight,
            "max_queued": spec.max_queued,
            "max_inflight": spec.max_inflight,
            "auth_required": spec.token is not None,
            "queued": sum(by_lane.values()),
            "queued_by_lane": by_lane,
            "inflight": _read(inflight, name),
            "work_share": counts["dispatched"] / dispatched if dispatched else 0.0,
        }
    return document


def _read(series: Mapping[Tuple[str, ...], Any], *labels: str) -> int:
    """One counter or gauge child's value as an int (0 when absent)."""
    child = series.get(labels)
    return int(child.value) if child is not None else 0
