"""Simulation-as-a-service: the HTTP layer over the experiment platform.

The :mod:`repro.exp` orchestration layer made every paper figure a
deterministic, content-addressed batch of jobs; this package serves that
capability over HTTP so consumers no longer need to sit on the machine that
owns the cache:

* :mod:`repro.service.server` -- :class:`~repro.service.server.ReproService`,
  an asyncio HTTP server (stdlib only, no framework) exposing
  ``POST /v1/jobs``, ``GET /v1/jobs/{id}``, ``GET /v1/results/{key}``,
  ``GET /v1/healthz``, ``GET /v1/stats`` and ``GET /v1/metrics`` (Prometheus
  text exposition backed by a per-server :mod:`repro.obs` registry).  Every
  response echoes the request's ``X-Repro-Trace-Id``, and the service logs
  through :mod:`repro.obs.logs` (``repro serve --log-json`` for structured
  lines).
* :mod:`repro.service.jobs` -- :class:`~repro.service.jobs.JobManager`:
  request coalescing (identical in-flight submissions share one execution,
  even across tenants), tenant-aware admission control (global queue bound
  plus per-tenant quotas, structured 429s) and a worker pool in which
  each worker owns one :class:`~repro.exp.runner.ExperimentRunner` (and
  its spawned simulation children) over one shared
  :class:`~repro.exp.cache.ResultCache`; a case batch the cache already
  holds completes at admission without simulating.
* :mod:`repro.service.tenancy` -- the resource-management layer:
  :class:`~repro.service.tenancy.TenancyConfig` (tenant roster, weights,
  quotas, auth tokens), :class:`~repro.service.tenancy.TenantScheduler`
  (stride-based weighted fair queueing with interactive/batch priority
  lanes) and per-tenant usage/latency accounting behind ``GET /v1/stats``.
* :mod:`repro.service.client` -- :class:`~repro.service.client.ServiceClient`,
  the blocking SDK the ``repro submit`` CLI verb wraps.
* :mod:`repro.service.http` -- minimal HTTP/1.1 framing over asyncio streams.

Start a server with ``python -m repro serve``; see ``docs/USAGE.md`` for the
wire schema, the tenancy model and a curl quickstart.
"""

from repro.service.client import ServiceClient, SubmitReceipt
from repro.service.jobs import JobManager, JobState, JobStatus
from repro.service.server import DEFAULT_PORT, ReproService, ServiceConfig, serve
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenancyConfig,
    TenantScheduler,
    TenantSpec,
)

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_TENANT",
    "JobManager",
    "JobState",
    "JobStatus",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "SubmitReceipt",
    "TenancyConfig",
    "TenantScheduler",
    "TenantSpec",
    "serve",
]
