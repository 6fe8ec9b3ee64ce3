"""The job queue: coalescing, tenant admission and the fair-scheduled pool.

:class:`JobManager` owns the server's execution state:

* an in-memory **job store** (``job_id -> JobState``) with a bounded history
  of finished jobs,
* the **coalescing index** -- while a request is queued or running, its
  content address (:meth:`repro.exp.request.JobRequest.key`) maps to the
  live job, so an identical concurrent submission returns the same job
  instead of executing twice.  A request is work content only (its tenant
  and priority arrive beside it, from the wire envelope or the journal), so
  identical work submitted by *different tenants* coalesces too,
* **admission control** -- a server-wide bound on queued jobs plus
  per-tenant quotas (max queued, max in-flight); a violated bound raises
  :class:`~repro.common.errors.ServiceOverloadedError` (HTTP 429 with a
  ``Retry-After`` hint), carrying :data:`~repro.common.errors.ErrorCode`
  ``overloaded`` for the global bound or ``tenant_quota_exceeded`` for a
  tenant quota -- one greedy tenant's rejections never affect the others,
* a **weighted fair scheduler** (:mod:`repro.service.tenancy`): per-tenant
  queues with two priority lanes (``interactive`` before ``batch``), drained
  by stride scheduling so saturated tenants receive work shares proportional
  to their configured weights, and
* a **worker pool**: ``workers`` asyncio tasks, each asking the scheduler
  for the next job and running the blocking simulation on a daemon thread so
  the event loop stays responsive.  Daemon (rather than executor) threads
  matter for shutdown: a ``concurrent.futures`` pool's non-daemon threads
  are joined at interpreter exit, so Ctrl-C on ``repro serve`` would hang
  until a running ``--full`` campaign finished; daemon threads let the
  process exit promptly.

Every execution builds a fresh :class:`~repro.exp.runner.ExperimentRunner`
over the *shared* :class:`~repro.exp.cache.ResultCache`, which is what makes
a re-submission after completion finish with zero simulations: the runner
satisfies every job from the cache (atomic writes make the directory safe to
share between workers).  All submit/complete bookkeeping happens on the
event-loop thread; worker threads only touch their own job's runner.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import math
import random
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import (
    ConfigurationError,
    ErrorCode,
    JobRetriesExhaustedError,
    JobTimeoutError,
    ReproError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.common.serialize import to_jsonable
from repro.exp.cache import ResultCache
from repro.exp.request import JobRequest
from repro.exp.runner import ExperimentRunner
from repro.faults import get_injector
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.journal import (
    JobJournal,
    JournalReplay,
    replay_journal,
)
from repro.service.tenancy import (
    JOB_EVENTS,
    LANE_BATCH,
    LANE_INTERACTIVE,
    PRIORITY_LANES,
    SERVICE_METRIC,
    TenancyConfig,
    TenantScheduler,
    job_totals,
    tenant_events,
    tenants_document,
)
from repro.sim.experiments import campaign_context, experiment_by_name

#: Schema of the ``GET /v1/stats`` document.  Version 2 added the
#: ``schema_version`` marker itself and guaranteed ``uptime_seconds`` as a
#: stable float field; v2 is the documented stable contract for scrapers.
STATS_SCHEMA_VERSION = 2

#: Supervised-retry backoff: attempt ``n`` sleeps ``uniform(0, min(cap,
#: base * 2**n))`` (capped exponential with full jitter, so a burst of
#: crashed jobs does not retry in lockstep).
RETRY_BACKOFF_BASE = 0.1
RETRY_BACKOFF_CAP = 5.0

log = get_logger("service.jobs")


def stats_document(metrics: MetricsRegistry, tenancy: TenancyConfig) -> Dict[str, Any]:
    """The ``GET /v1/stats`` document, read from a metrics registry.

    ``metrics`` is one server's live registry or the merge of every shard's
    (:func:`repro.service.shards.merge_metrics_documents`); the same reads
    give the same document either way.  This is a stable v2 contract:
    ``schema_version`` names the document's own schema and
    ``uptime_seconds`` is guaranteed present as a float.  Additive changes
    bump :data:`STATS_SCHEMA_VERSION`.
    """

    def gauge(name: str) -> float:
        child = metrics.series(name).get(())
        return float(child.value) if child is not None else 0.0

    tenants = tenants_document(metrics, tenancy)
    return {
        "schema_version": STATS_SCHEMA_VERSION,
        "uptime_seconds": gauge("repro_uptime_seconds"),
        "queue": {
            "depth": int(gauge("repro_queue_depth")),
            "limit": int(gauge("repro_queue_limit")),
            "running": int(gauge("repro_jobs_inflight")),
            "workers": int(gauge("repro_workers")),
        },
        "totals": job_totals({name: entry["jobs"] for name, entry in tenants.items()}),
        "default_tenant": tenancy.default_tenant,
        "tenants": tenants,
    }


def is_retryable(error: BaseException) -> bool:
    """Whether a job failure is worth re-running on a fresh runner.

    Retryable failures are *substrate* deaths -- the worker process or its
    IPC plumbing was lost, not the simulation itself: re-running identical
    inputs can succeed.  Deterministic library errors (bad configuration,
    simulation invariant violations) reproduce on every attempt, so they
    fail fast rather than burning retries; :class:`WorkerCrashError` is the
    one :class:`ReproError` that *is* retryable, by definition.
    """
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, WorkerCrashError):
        return True
    if isinstance(error, ReproError):
        return False
    return isinstance(
        error,
        (BrokenProcessPool, BrokenPipeError, EOFError, ConnectionError, OSError),
    )


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class JobState:
    """Everything the server knows about one submitted job.

    :attr:`finished` is the job's completion event: the worker sets it once
    it has recorded a completed or failed outcome, and a long poll
    (``GET /v1/jobs/{id}?wait=``) awaits it.  Coalesced submissions share
    one state, so one event wakes all of their waiters.  A job cancelled by
    a server shutdown never sets it: the journal re-queues that job for the
    next generation, so it has not finished.
    """

    job_id: str
    request: JobRequest
    key: str
    #: Wall-clock submission time (the wire form clients see).
    submitted_at: float
    #: Monotonic twin of ``submitted_at``: every *duration* (queue wait,
    #: service time, elapsed) is computed from the monotonic clock so an NTP
    #: step can never produce a negative or wildly wrong latency sample.
    submitted_monotonic: float = 0.0
    #: Resolved tenant and scheduling lane (admission metadata; the first
    #: submitter's tenant owns a coalesced job).
    tenant: str = "default"
    lane: str = LANE_BATCH
    #: The correlation ID of the submission that created this job (the
    #: first submitter's, for a coalesced job), echoed in status documents.
    trace_id: Optional[str] = None
    status: JobStatus = JobStatus.QUEUED
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    result: Optional[Any] = None
    error: Optional[str] = None
    #: Machine-readable code for a failed job (an :class:`ErrorCode` value),
    #: so pollers can branch on timeouts vs exhausted retries vs plain bugs.
    error_code: Optional[str] = None
    #: Execution attempts so far (1 = first run; >1 means the supervisor
    #: retried a substrate crash).
    attempts: int = 0
    #: How many later identical submissions were folded into this job.
    coalesced_submissions: int = 0
    #: The runner executing this job (progress counters), set by the worker.
    runner: Optional[ExperimentRunner] = field(default=None, repr=False)
    finished: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def view(self, include_result: bool = True) -> Dict[str, Any]:
        """The job's wire status document (``GET /v1/jobs/{id}``)."""
        runner = self.runner
        elapsed = None
        if self.started_monotonic is not None:
            elapsed = (self.finished_monotonic or time.monotonic()) - self.started_monotonic
        document: Dict[str, Any] = {
            "job_id": self.job_id,
            "status": self.status.value,
            "request_key": self.key,
            "tenant": self.tenant,
            "priority": self.lane,
            "trace_id": self.trace_id,
            "figure": self.request.figure,
            "case_count": len(self.request.cases),
            "instructions": self.request.instructions,
            "seed": self.request.seed,
            "full": self.request.full,
            "policy": self.request.policy,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": elapsed,
            "coalesced_submissions": self.coalesced_submissions,
            "attempts": self.attempts,
            "progress": {
                "executed_jobs": runner.executed_jobs if runner is not None else 0,
                "cache_hits": runner.cache_hits if runner is not None else 0,
            },
            "error": self.error,
            "error_code": self.error_code,
        }
        if include_result and self.status is JobStatus.COMPLETED:
            document["result"] = self.result
        return document


class JobManager:
    """Job store + coalescing index + tenant admission + fair worker pool."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        sim_jobs: int = 1,
        queue_limit: int = 8,
        history_limit: int = 256,
        tenancy: Optional[TenancyConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        shard_index: int = 0,
        shard_count: int = 1,
        job_timeout: Optional[float] = None,
        job_retries: int = 2,
        retry_backoff_base: float = RETRY_BACKOFF_BASE,
    ) -> None:
        self.cache = cache
        self.workers = max(1, workers)
        self.sim_jobs = max(1, sim_jobs)
        self.queue_limit = max(1, queue_limit)
        self.history_limit = max(1, history_limit)
        #: Per-job wall-clock execution bound (``None`` = unlimited, the
        #: default: ``--full`` campaigns legitimately run for a long time).
        self.job_timeout = job_timeout if job_timeout and job_timeout > 0 else None
        #: How many times a *retryable* failure (see :func:`is_retryable`)
        #: is re-run before the job fails with ``job_retries_exhausted``.
        self.job_retries = max(0, job_retries)
        self.retry_backoff_base = max(0.0, retry_backoff_base)
        #: Which shard of a ``repro serve --shards N`` group this manager is.
        #: Sharded job IDs carry the shard index (``job-s2-000017``) so any
        #: shard can route a status poll to the shard that owns the job.
        self.shard_index = shard_index
        self.shard_count = max(1, shard_count)
        self.tenancy = tenancy if tenancy is not None else TenancyConfig.open()
        #: The registry this manager (and its scheduler/tenants) report
        #: into; a private one per manager by default, so embedded test
        #: servers never share counters.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = TenantScheduler(self.tenancy, metrics=self.metrics)
        self.jobs: Dict[str, JobState] = {}
        self._inflight: Dict[str, str] = {}
        #: Set whenever scheduler state changes; idle workers wait on it.
        self._work_available = asyncio.Event()
        self._worker_tasks: List[asyncio.Task] = []
        self._counter = itertools.count(1)
        #: Completed figure/batch payloads keyed by *request* key, so a
        #: poller whose job was trimmed from the bounded history can still
        #: fetch the result via ``GET /v1/results/{request key}``.  Bounded
        #: like the job history (oldest completion evicted first).
        self._finished_results: "OrderedDict[str, Any]" = OrderedDict()
        #: Wall-clock start (wire form) and its monotonic twin (used for
        #: every uptime/duration computation -- immune to NTP steps).
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        #: Test hook: called (in the worker thread) just before execution.
        self.pre_execute: Optional[Callable[[JobState], None]] = None
        #: The durable lifecycle journal, attached by :meth:`recover_journal`
        #: (``None`` = journaling disabled, e.g. cache-less servers).
        self.journal: Optional[JobJournal] = None
        self._retries_total = self.metrics.counter(
            "repro_job_retries_total",
            "Supervised re-executions after retryable job failures",
        )
        self._journal_replays = self.metrics.counter(
            "repro_journal_replays_total",
            "Journal generations replayed at startup",
        )
        # Queue-state gauges, computed at scrape time so they can never
        # drift from the scheduler's actual state.
        self.metrics.gauge(
            "repro_queue_depth", "Jobs queued (not yet running)"
        ).set_function(self.scheduler.queued_total)
        self.metrics.gauge(
            "repro_queue_limit", "Admission-control bound on queued jobs"
        ).set_function(lambda: self.queue_limit)
        self.metrics.gauge(
            "repro_jobs_inflight", "Jobs currently executing"
        ).set_function(self.scheduler.inflight_total)
        self.metrics.gauge(
            "repro_workers", "Worker tasks executing jobs"
        ).set_function(lambda: self.workers)
        self.metrics.gauge(
            "repro_uptime_seconds", "Seconds since this job manager started"
        ).set_function(self.uptime_seconds)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks on the running event loop."""
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"repro-service-worker-{index}")
            for index in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel the worker tasks (their daemon threads die with the process)."""
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self.journal is not None:
            self.journal.close()

    # -- durability ----------------------------------------------------

    def recover_journal(self, path: Union[str, Path]) -> JournalReplay:
        """Replay a prior journal generation at ``path`` and journal onward.

        Call before the server accepts connections.  Any existing file is
        replayed (per-tenant accounting restored into the registry, every
        admitted-but-unfinished job re-queued), then rotated aside to
        ``<name>.prev``; a fresh generation opens with a ``snapshot`` record
        of the registry's per-tenant counts so accounting chains across any
        number of restarts.  Re-queues bypass admission control (the jobs
        were already admitted once) and complete instantly when the shared
        result cache already holds their work -- the content-addressed
        idempotence that makes replay safe.
        """
        path = Path(path)
        replay = replay_journal(path)
        if path.exists():
            path.replace(path.with_name(path.name + ".prev"))
        if replay.records:
            self._restore_accounting(replay)
            self._journal_replays.inc()
        self.journal = JobJournal(path)
        self.journal.snapshot(tenant_events(self.metrics))
        for job in replay.pending:
            try:
                self.submit(
                    job.request,
                    trace_id=job.trace_id,
                    tenant=job.tenant,
                    priority=job.lane,
                    requeued=True,
                )
            except ReproError as error:
                # A replayed record for a tenant no longer in a closed
                # roster (or similar config drift) must not stop the server.
                log.warning(
                    "could not re-queue journaled job %s: %s", job.job_id, error
                )
        if replay.records or replay.pending:
            log.info(
                "journal replay: %d records, %d re-queued, %d skipped",
                replay.records,
                len(replay.pending),
                replay.skipped,
            )
        return replay

    def _restore_accounting(self, replay: JournalReplay) -> None:
        """Fold replayed per-tenant counts into this (fresh) manager's registry."""
        for tenant, events in replay.tenant_events.items():
            try:
                accounting = self.scheduler.accounting(tenant)
            except ConfigurationError:
                log.warning(
                    "journal names tenant %r not in the current roster; skipped", tenant
                )
                continue
            for event, count in events.items():
                if event in JOB_EVENTS and count > 0:
                    accounting.inc(event, count)

    # -- submission (event-loop thread) --------------------------------

    def resolve_lane(self, request: JobRequest, priority: Any = None) -> str:
        """The scheduling lane a request rides: an explicit ``priority``
        (one of :data:`PRIORITY_LANES`) wins, then full campaigns default to
        ``batch`` and everything else to ``interactive`` (short jobs must
        never wait behind campaigns)."""
        if priority is None:
            return LANE_BATCH if request.full else LANE_INTERACTIVE
        if priority not in PRIORITY_LANES:
            raise ConfigurationError(
                f"unknown priority {priority!r} (one of {', '.join(PRIORITY_LANES)})"
            )
        return priority

    def submit(
        self,
        request: JobRequest,
        trace_id: Optional[str] = None,
        *,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        requeued: bool = False,
    ) -> Tuple[JobState, bool]:
        """Admit a request; returns ``(job, coalesced)``.

        ``tenant`` (``None`` = the default tenant) is charged for the
        submission and ``priority`` picks its lane (:meth:`resolve_lane`).
        An identical in-flight request (same content address, still queued or
        running -- regardless of tenant) is coalesced: the existing job is
        returned and nothing is enqueued.  Coalesced submissions bypass the
        quotas (they add no work).  Otherwise admission charges the resolved
        tenant: a full tenant quota or a full server-wide queue raises
        :class:`ServiceOverloadedError` with the matching error code.
        ``trace_id`` is the submission's correlation ID; the first
        submitter's ID owns a coalesced job.

        ``requeued`` marks a journal-replay re-admission: the job was
        already admitted (and counted, and quota-charged) by a previous
        server generation, so it bypasses admission control and is not
        re-counted -- dropping it to a full queue would lose a job the old
        server had acknowledged.
        """
        request = request.normalized()
        lane = self.resolve_lane(request, priority)
        if tenant is None:
            tenant = self.tenancy.default_tenant
        # Resolve the spec first: an unknown tenant under a closed roster is
        # a 400 (ConfigurationError), never a quota rejection.
        runtime = self.scheduler.runtime(tenant)
        accounting = runtime.accounting
        key = request.key()
        existing_id = self._inflight.get(key)
        if existing_id is not None:
            state = self.jobs[existing_id]
            state.coalesced_submissions += 1
            accounting.inc("coalesced")
            if self.journal is not None:
                self.journal.coalesced(state, tenant)
            log.debug(
                "submission coalesced with %s", state.job_id, extra={"tenant": tenant}
            )
            return state, True
        if requeued:
            return self._admit(request, key, tenant, lane, trace_id, requeued=True), False
        if runtime.spec.max_queued is not None and runtime.queued() >= runtime.spec.max_queued:
            accounting.inc("rejected_quota")
            raise ServiceOverloadedError(
                f"tenant {tenant!r} already has {runtime.queued()} jobs queued "
                f"(quota {runtime.spec.max_queued}); retry later",
                code=ErrorCode.TENANT_QUOTA_EXCEEDED,
                tenant=tenant,
                retry_after=self.retry_after_hint(runtime.queued()),
            )
        if self.scheduler.queued_total() >= self.queue_limit:
            accounting.inc("rejected_capacity")
            raise ServiceOverloadedError(
                f"job queue is full ({self.queue_limit} pending); retry later",
                code=ErrorCode.OVERLOADED,
                tenant=tenant,
                retry_after=self.retry_after_hint(self.scheduler.queued_total()),
            )
        return self._admit(request, key, tenant, lane, trace_id, requeued=False), False

    def _admit(
        self,
        request: JobRequest,
        key: str,
        tenant: str,
        lane: str,
        trace_id: Optional[str],
        *,
        requeued: bool,
    ) -> JobState:
        """Create, enqueue and journal one admitted job (admission control
        already passed -- or was bypassed for a journal re-queue)."""
        state = JobState(
            job_id=self._next_job_id(),
            request=request,
            key=key,
            submitted_at=time.time(),
            submitted_monotonic=time.monotonic(),
            tenant=tenant,
            lane=lane,
            trace_id=trace_id,
        )
        self.scheduler.enqueue(tenant, lane, state)
        self._work_available.set()
        self.jobs[state.job_id] = state
        self._inflight[key] = state.job_id
        if not requeued:
            # A re-queued job was counted by the generation that first
            # admitted it; those totals arrived via the journal snapshot.
            self.scheduler.accounting(tenant).inc("admitted")
        if self.journal is not None:
            self.journal.admitted(state, requeued=requeued)
        self._trim_history()
        log.info(
            "admitted %s (%s lane)%s",
            state.job_id,
            lane,
            " [journal re-queue]" if requeued else "",
            extra={"tenant": tenant, "trace_id": trace_id},
        )
        return state

    def _next_job_id(self) -> str:
        """Mint the next job id; sharded managers tag it with their shard
        index (``job-s1-000042``) so peers can route status polls here."""
        if self.shard_count > 1:
            return f"job-s{self.shard_index}-{next(self._counter):06d}"
        return f"job-{next(self._counter):06d}"

    def uptime_seconds(self) -> float:
        """Seconds since this manager started, from the monotonic clock."""
        return time.monotonic() - self._started_monotonic

    def retry_after_hint(self, queued_ahead: int) -> int:
        """Seconds a rejected caller should back off: the observed mean
        service time scaled by the backlog per worker, clamped to [1, 60]."""
        histograms = self.metrics.series(SERVICE_METRIC).values()
        count = sum(histogram.count for histogram in histograms)
        if count == 0:
            return 1
        mean = sum(histogram.total for histogram in histograms) / count
        estimate = math.ceil(mean * max(1, queued_ahead) / self.workers)
        return int(min(60, max(1, estimate)))

    def _trim_history(self) -> None:
        """Drop the oldest finished jobs beyond the history limit.

        Only *finished* jobs count against the limit: under a backlog the
        store legitimately holds many queued/running entries, and counting
        them (the pre-PR8 bug) evicted recently finished jobs long before
        ``history_limit`` finished ones existed -- pollers then saw
        "unknown job" for work that had succeeded.  Eviction order is
        completion time, not dict insertion order: a job submitted early but
        finished late is *newer* history than a quick job submitted after it.
        """
        finished = [
            state
            for state in self.jobs.values()
            if state.status in (JobStatus.COMPLETED, JobStatus.FAILED)
        ]
        excess = len(finished) - self.history_limit
        if excess <= 0:
            return
        finished.sort(key=lambda state: state.finished_monotonic or 0.0)
        for state in finished[:excess]:
            del self.jobs[state.job_id]

    # -- execution -----------------------------------------------------

    async def _run_on_daemon_thread(self, state: JobState) -> Any:
        """Execute one job on a fresh daemon thread; await its outcome.

        Concurrency stays bounded by the worker tasks (each runs at most one
        job at a time), so per-job threads cost nothing extra.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()

        def run() -> None:
            # `except ... as e` unbinds its name when the block ends, so the
            # outcome closure must capture a separate binding that survives.
            failure: Optional[BaseException] = None
            result: Any = None
            try:
                result = self._execute(state)
            except BaseException as error:  # noqa: BLE001 -- marshalled to the future
                failure = error

            def outcome() -> None:
                if future.done():
                    return
                if failure is not None:
                    future.set_exception(failure)
                else:
                    future.set_result(result)

            try:
                loop.call_soon_threadsafe(outcome)
            except RuntimeError:
                pass  # loop already closed during shutdown; result is moot

        threading.Thread(target=run, name="repro-worker", daemon=True).start()
        return await future

    async def _next_job(self) -> JobState:
        """Await the scheduler's next pick.

        The pick/clear/wait sequence has no await between ``pick`` and
        ``wait``, and all state changes happen on this same loop, so a
        wakeup can never be lost.
        """
        while True:
            picked = self.scheduler.pick()
            if picked is not None:
                return picked[1]
            self._work_available.clear()
            await self._work_available.wait()

    async def _worker_loop(self) -> None:
        while True:
            state = await self._next_job()
            accounting = self.scheduler.accounting(state.tenant)
            state.status = JobStatus.RUNNING
            state.started_at = time.time()
            state.started_monotonic = time.monotonic()
            accounting.queue_wait.record(
                state.started_monotonic - state.submitted_monotonic
            )
            if self.journal is not None:
                self.journal.dispatched(state)
            try:
                state.result = await self._supervised(state)
                state.status = JobStatus.COMPLETED
                accounting.inc("completed")
                if self.journal is not None:
                    self.journal.completed(state)
            except asyncio.CancelledError:
                # Deliberately NOT journalled as failed: the job stays
                # admitted-but-unfinished, so the next generation's replay
                # re-queues it -- a shutdown must never lose accepted work.
                state.status = JobStatus.FAILED
                state.error = "server shut down before the job finished"
                raise
            except Exception as error:  # noqa: BLE001 -- job failure, not server failure
                state.status = JobStatus.FAILED
                state.error = f"{type(error).__name__}: {error}"
                code = getattr(error, "code", None)
                state.error_code = (
                    code.value if isinstance(code, ErrorCode) else ErrorCode.INTERNAL.value
                )
                accounting.inc("failed")
                if self.journal is not None:
                    self.journal.failed(state)
                log.warning(
                    "job %s failed: %s",
                    state.job_id,
                    state.error,
                    extra={"tenant": state.tenant, "trace_id": state.trace_id},
                )
            finally:
                state.finished_at = time.time()
                state.finished_monotonic = time.monotonic()
                service_seconds = state.finished_monotonic - state.started_monotonic
                accounting.service_time.record(service_seconds)
                if state.status is JobStatus.COMPLETED:
                    self._remember_result(state)
                if state.runner is not None:
                    accounting.add_sims(
                        state.runner.executed_jobs, state.runner.cache_hits
                    )
                log.info(
                    "job %s finished as %s in %.3fs",
                    state.job_id,
                    state.status.value,
                    service_seconds,
                    extra={"tenant": state.tenant, "trace_id": state.trace_id},
                )
                if self._inflight.get(state.key) == state.job_id:
                    del self._inflight[state.key]
                self.scheduler.release(state.tenant)
                # A released in-flight slot may make a quota-capped tenant
                # runnable again; wake any idle worker.
                self._work_available.set()
            # Only a completed or failed job gets here: a cancelled one
            # re-raised above and stays unfinished for the journal replay.
            state.finished.set()

    async def _supervised(self, state: JobState) -> Any:
        """Run one job under the supervisor: timeout, bounded retries.

        Each attempt runs :meth:`_execute` on a fresh daemon thread (and a
        fresh runner -- pool re-spawn after a worker crash is free).  A
        configured ``job_timeout`` bounds each attempt's wall clock; on
        expiry the job fails with :class:`JobTimeoutError` and is *not*
        retried (a second attempt would very likely time out too).  The
        abandoned daemon thread may keep computing harmlessly -- it reports
        into a future whose result no longer matters, and its runner feeds
        the shared cache, so the work is not even wasted.

        Retryable failures (see :func:`is_retryable`) are re-run up to
        ``job_retries`` times with capped exponential backoff and full
        jitter; exhaustion fails the job with
        :class:`JobRetriesExhaustedError` chaining the last crash.
        """
        attempt = 0
        while True:
            state.attempts = attempt + 1
            try:
                if self.job_timeout is not None:
                    return await asyncio.wait_for(
                        self._run_on_daemon_thread(state), self.job_timeout
                    )
                return await self._run_on_daemon_thread(state)
            except asyncio.TimeoutError:
                raise JobTimeoutError(
                    f"job exceeded the {self.job_timeout:g}s execution timeout "
                    f"(attempt {attempt + 1})"
                ) from None
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 -- classified below
                if not is_retryable(error):
                    raise
                if attempt >= self.job_retries:
                    if self.job_retries > 0:
                        raise JobRetriesExhaustedError(
                            f"job failed after {attempt + 1} attempts; last error: "
                            f"{type(error).__name__}: {error}"
                        ) from error
                    raise
                delay = random.uniform(
                    0.0, min(RETRY_BACKOFF_CAP, self.retry_backoff_base * 2**attempt)
                )
                self._retries_total.inc()
                log.warning(
                    "job %s attempt %d crashed (%s: %s); retrying in %.3fs",
                    state.job_id,
                    attempt + 1,
                    type(error).__name__,
                    error,
                    delay,
                    extra={"tenant": state.tenant, "trace_id": state.trace_id},
                )
                attempt += 1
                if delay > 0:
                    await asyncio.sleep(delay)

    def _execute(self, state: JobState) -> Any:
        """Run one job to completion in a worker thread; returns the payload.

        A fresh runner per job keeps the progress counters per-request; the
        shared cache is what deduplicates work across jobs over time.  The
        runner's pool must use the spawn start method here: this process is
        multithreaded (event loop + executor threads), so a forked child
        could inherit a lock a sibling thread holds and deadlock.
        """
        runner = ExperimentRunner(
            jobs=self.sim_jobs,
            cache=self.cache,
            start_method="spawn" if self.sim_jobs > 1 else None,
        )
        state.runner = runner
        hook = self.pre_execute
        if hook is not None:
            hook(state)
        injector = get_injector()
        if injector is not None and injector.should("kill_worker", key=state.key):
            # The chaos harness's worker kill: a transient substrate death
            # (fired at most once per key) the supervisor must retry past.
            runner.close()
            raise WorkerCrashError("fault injection: worker killed mid-job")
        request = state.request
        try:
            if request.figure is not None:
                spec = experiment_by_name(request.figure)
                context = campaign_context(
                    full=request.full,
                    instructions=request.instructions,
                    seed=request.seed,
                    runner=runner,
                    policy=request.policy,
                )
                return to_jsonable(context.run(spec.plan(context)))
            batch = runner.run_batch(list(request.cases))
            return {key: result.to_dict() for key, result in batch.items()}
        finally:
            runner.close()

    # -- lookups -------------------------------------------------------

    def _remember_result(self, state: JobState) -> None:
        """Retain a completed payload under its *request* key.

        This is the trim-survival contract: a client whose finished job fell
        out of the bounded history can still resolve the result through
        ``GET /v1/results/{request key}`` (the receipt carries the key), so a
        job that actually succeeded is never reported as unknown work.
        """
        self._finished_results[state.key] = state.result
        self._finished_results.move_to_end(state.key)
        while len(self._finished_results) > self.history_limit:
            self._finished_results.popitem(last=False)

    def result_for(self, key: str) -> Optional[Any]:
        """Resolve a content address: a finished request's payload, or one
        simulation from the shared cache.

        Only well-formed content addresses (64 hex digits) are looked up:
        the key comes straight from the request URL, and anything else could
        traverse outside the cache root via ``ResultCache.path_for``.
        Request keys (completed figure/batch payloads retained past history
        trimming) are checked before per-simulation cache keys; the two hash
        different inputs, so one key never means both.
        """
        if not re.fullmatch(r"[0-9a-f]{64}", key):
            return None
        held = self._finished_results.get(key)
        if held is not None:
            return held
        if self.cache is None:
            return None
        cached = self.cache.get(key)
        return None if cached is None else cached.to_dict()

    def stats_document(self) -> Dict[str, Any]:
        """This server's ``GET /v1/stats`` document (see :func:`stats_document`)."""
        return stats_document(self.metrics, self.tenancy)

    def health(self) -> Dict[str, Any]:
        """The ``GET /v1/healthz`` document; its counts are the stats document's."""
        from repro._version import __version__

        stats = self.stats_document()
        jobs = dict(stats["totals"])
        rejections = jobs.pop("rejections")
        tenants_summary = {
            name: {
                "queued": entry["queued"],
                "inflight": entry["inflight"],
                "admitted": entry["jobs"]["admitted"],
                "rejected": entry["jobs"]["rejected_quota"]
                + entry["jobs"]["rejected_capacity"],
            }
            for name, entry in stats["tenants"].items()
        }
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": stats["uptime_seconds"],
            "started_at": self.started_at,
            "workers": stats["queue"]["workers"],
            "sim_jobs": self.sim_jobs,
            "queue_depth": stats["queue"]["depth"],
            "queue_limit": stats["queue"]["limit"],
            "inflight": len(self._inflight),
            "cache_dir": None if self.cache is None else str(self.cache.root),
            "journal": None if self.journal is None else str(self.journal.path),
            "jobs": jobs,
            "rejections": rejections,
            "tenants": tenants_summary,
        }
