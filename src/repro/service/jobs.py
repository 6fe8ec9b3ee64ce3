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
  for the next job.  Each worker owns one
  :class:`~repro.exp.runner.ExperimentRunner` over the *shared*
  :class:`~repro.exp.cache.ResultCache`, whose ``max(1, sim_jobs)``
  spawned child processes run every simulation, and one daemon thread
  that drives that runner, so the event loop never blocks on a job and
  the server's interpreter never simulates.  Both last until the worker
  stops, or until a job times out, which swaps in a fresh pair.  Daemon
  (rather than executor) threads matter for shutdown: a
  ``concurrent.futures`` pool's non-daemon threads are joined at
  interpreter exit, so Ctrl-C on ``repro serve`` would hang until a
  running ``--full`` campaign finished.

A case batch whose every case is already in the result cache never
queues: :meth:`JobManager.submit` answers it at admission, completed with
zero simulations.  Anything else queues, and the shared cache is what
makes a re-submission of finished work cheap (atomic writes make the
directory safe to share between workers).  All submit/complete
bookkeeping happens on the event-loop thread; a worker's thread only
touches its own runner and the job it runs.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import math
import queue
import random
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
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
from repro.uarch.result import CoreResult

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
    """Whether a job failure is worth re-running on freshly spawned children.

    Retryable failures are *substrate* deaths -- a simulation child or its
    IPC plumbing was lost (``BrokenProcessPool``), not the simulation
    itself: re-running identical inputs can succeed.  Deterministic
    library errors (bad configuration, simulation invariant violations)
    reproduce on every attempt, so they fail fast rather than burning
    retries; :class:`WorkerCrashError` is the
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
    #: Progress of the latest attempt once it has ended (:meth:`settle`):
    #: simulations run and cache hits.  While it runs, :meth:`progress`
    #: reads them live from ``runner``.
    executed_jobs: int = 0
    cache_hits: int = 0
    #: A case batch's cache lookups made at admission (key -> result, or
    #: ``None`` for the first miss); the worker does not repeat them.
    probed: Optional[Dict[str, Optional[CoreResult]]] = field(default=None, repr=False)
    #: The runner of the worker running the latest attempt, and its
    #: counters when that attempt started (``None`` once it has ended).
    runner: Optional[ExperimentRunner] = field(default=None, repr=False)
    baseline: Optional[Tuple[int, int]] = None
    finished: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def track(self, runner: ExperimentRunner) -> None:
        """Start counting an attempt's progress on ``runner``, which
        outlives the job and may have run other jobs before it."""
        self.runner = runner
        self.baseline = (runner.executed_jobs, runner.cache_hits)

    def progress(self) -> Tuple[int, int]:
        """``(simulations run, cache hits)`` of the latest attempt, so far."""
        if self.runner is None or self.baseline is None:
            return self.executed_jobs, self.cache_hits
        return (
            self.runner.executed_jobs - self.baseline[0],
            self.runner.cache_hits - self.baseline[1],
        )

    def settle(self) -> None:
        """Freeze the attempt's progress; a timed-out attempt that goes on
        running unobserved no longer counts."""
        self.executed_jobs, self.cache_hits = self.progress()
        self.baseline = None

    def view(self, include_result: bool = True) -> Dict[str, Any]:
        """The job's wire status document (``GET /v1/jobs/{id}``)."""
        elapsed = None
        if self.started_monotonic is not None:
            elapsed = (self.finished_monotonic or time.monotonic()) - self.started_monotonic
        executed_jobs, cache_hits = self.progress()
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
            "progress": {"executed_jobs": executed_jobs, "cache_hits": cache_hits},
            "error": self.error,
            "error_code": self.error_code,
        }
        if include_result and self.status is JobStatus.COMPLETED:
            document["result"] = self.result
        return document


class _WorkerLane:
    """One service worker's execution side: its runner and its thread.

    The runner lives as long as the lane, and so do its spawned children:
    jobs reuse them.  The one daemon thread runs the lane's calls one at a
    time (:meth:`run`), so the blocking parts of a job -- cache I/O, a
    figure's plan and reduce, waiting on the children -- stay off the
    event loop without a thread per attempt.  A call that overruns the
    job timeout is given up (:meth:`abandon`) wherever it is: its runner
    is closed for good, killing its children, and the lane carries on with
    a fresh runner and thread, so the worker's next job starts at once.
    """

    def __init__(self, make_runner: Callable[[], ExperimentRunner], name: str) -> None:
        self._make_runner = make_runner
        self._name = name
        self._open()

    def _open(self) -> None:
        self.runner = self._make_runner()
        self._calls: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        threading.Thread(
            target=self._serve, args=(self._calls,), name=self._name, daemon=True
        ).start()

    @staticmethod
    def _serve(calls: "queue.SimpleQueue[Any]") -> None:
        while True:
            item = calls.get()
            if item is None:
                return
            loop, future, call = item
            if future.done():
                continue  # timed out or cancelled while it waited its turn
            # `except ... as e` unbinds its name when the block ends, so the
            # outcome closure must capture a separate binding that survives.
            failure: Optional[BaseException] = None
            result: Any = None
            try:
                result = call()
            except BaseException as error:  # noqa: BLE001 -- marshalled to the future
                failure = error

            def outcome(failure=failure, result=result, future=future) -> None:
                if future.done():
                    return  # timed out or cancelled meanwhile; moot
                if failure is not None:
                    future.set_exception(failure)
                else:
                    future.set_result(result)

            try:
                loop.call_soon_threadsafe(outcome)
            except RuntimeError:
                pass  # loop already closed during shutdown; result is moot

    def run(self, call: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Queue ``call`` for this lane's thread; await the returned future."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._calls.put((loop, future, call))
        return future

    def abandon(self) -> None:
        """Give up on the running call: kill the runner's children without
        waiting, and go on with a fresh runner and thread.

        The old thread ends once its call returns; the call can start no
        simulation, because its runner is closed for good.
        """
        self._close(wait=False)
        self._open()

    def stop(self) -> None:
        """Kill and reap the children and retire the runner; the thread
        ends after its current call.

        Reaping before the server exits leaves no pool half torn down for
        interpreter exit to race with, and after the kill it is quick.
        """
        self._close(wait=True)

    def _close(self, wait: bool) -> None:
        self.runner.close(wait=wait, final=True)
        self._calls.put(None)


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
        self._lanes: List[_WorkerLane] = []
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
        #: Test hook: called (on the worker's thread) just before execution.
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
        """Spawn the worker tasks on the running event loop.

        Each worker gets its runner and thread here; the runner's children
        start with the worker's first simulation, off the start-up path.
        """
        self._lanes = [
            _WorkerLane(
                partial(ExperimentRunner, jobs=self.sim_jobs, cache=self.cache, children="spawn"),
                name="repro-worker",
            )
            for _ in range(self.workers)
        ]
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(lane), name=f"repro-service-worker-{index}")
            for index, lane in enumerate(self._lanes)
        ]

    async def stop(self) -> None:
        """Cancel the worker tasks and kill every worker's children."""
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        for lane in self._lanes:
            lane.stop()
        self._lanes = []
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
        returned and nothing is enqueued.  A case batch whose every case the
        result cache already holds is answered here: the job is born
        completed, with zero simulations, and never queues.  Coalesced and
        cache-answered submissions bypass the quotas (they add no work).
        Otherwise admission charges the resolved tenant: a full tenant quota
        or a full server-wide queue raises :class:`ServiceOverloadedError`
        with the matching error code.  ``trace_id`` is the submission's
        correlation ID; the first submitter's ID owns a coalesced job.

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
        probed = self._probe(request)
        if requeued or (probed is not None and None not in probed.values()):
            return self._admit(request, key, tenant, lane, trace_id, probed, requeued), False
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
        return self._admit(request, key, tenant, lane, trace_id, probed, requeued), False

    def _probe(self, request: JobRequest) -> Optional[Dict[str, Optional[CoreResult]]]:
        """Look a case batch's cases up in the result cache, each once.

        Returns ``{case key: cached result}`` in case order, stopping at
        the first miss (recorded as ``None``), so a batch that must queue
        costs at most one lookup more than its leading hits; the worker
        takes these answers instead of asking again.  ``None`` for a
        figure request or a cache-less server.
        """
        if request.figure is not None or self.cache is None:
            return None
        probed: Dict[str, Optional[CoreResult]] = {}
        for case in request.cases:
            key = case.key()
            if key not in probed:
                probed[key] = self.cache.get(key)
                if probed[key] is None:
                    break
        return probed

    def _admit(
        self,
        request: JobRequest,
        key: str,
        tenant: str,
        lane: str,
        trace_id: Optional[str],
        probed: Optional[Dict[str, Optional[CoreResult]]],
        requeued: bool,
    ) -> JobState:
        """Create and journal one admitted job (admission control already
        passed, or was bypassed), then queue it -- or, when ``probed``
        holds every case's cached result, complete it on the spot."""
        now, monotonic = time.time(), time.monotonic()
        state = JobState(
            job_id=self._next_job_id(),
            request=request,
            key=key,
            submitted_at=now,
            submitted_monotonic=monotonic,
            tenant=tenant,
            lane=lane,
            trace_id=trace_id,
            probed=probed,
        )
        self.jobs[state.job_id] = state
        accounting = self.scheduler.accounting(tenant)
        if not requeued:
            # A re-queued job was counted by the generation that first
            # admitted it; those totals arrived via the journal snapshot.
            accounting.inc("admitted")
        if self.journal is not None:
            self.journal.admitted(state, requeued=requeued)
        if probed is not None and None not in probed.values():
            state.status = JobStatus.COMPLETED
            state.started_at = state.finished_at = now
            state.started_monotonic = state.finished_monotonic = monotonic
            state.result = {case: result.to_dict() for case, result in probed.items()}
            state.cache_hits = len(probed)
            state.probed = None
            accounting.inc("completed")
            accounting.add_sims(0, state.cache_hits)
            # No queue-wait or service-time sample: those summaries describe
            # queued work, and the service-time mean sets its Retry-After.
            if self.journal is not None:
                self.journal.completed(state)
            self._remember_result(state)
            state.finished.set()
            outcome = "completed from the result cache"
        else:
            self.scheduler.enqueue(tenant, lane, state)
            self._work_available.set()
            self._inflight[key] = state.job_id
            outcome = f"queued ({lane} lane)"
        self._trim_history()
        log.info(
            "admitted %s, %s%s",
            state.job_id,
            outcome,
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

    async def _worker_loop(self, lane: _WorkerLane) -> None:
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
                state.result = await self._supervised(state, lane)
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
                state.settle()
                accounting.add_sims(state.executed_jobs, state.cache_hits)
                state.probed = None
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

    async def _supervised(self, state: JobState, lane: _WorkerLane) -> Any:
        """Run one job under the supervisor: timeout, bounded retries.

        Each attempt runs :meth:`_execute` on the worker's thread, whose
        runner's children do the simulating.  A configured ``job_timeout``
        bounds each attempt's wall clock; on expiry the worker's lane is
        abandoned (:meth:`_WorkerLane.abandon`) wherever the attempt is, in
        a simulation or not: its children are killed, so the simulation dies
        instead of running on unobserved and the attempt can start no other,
        and the worker's next job starts at once on a fresh runner and
        thread.  The job fails with :class:`JobTimeoutError`, *not* retried
        (a second attempt would very likely time out too).

        Retryable failures (see :func:`is_retryable`: a dead child breaks
        the pool with ``BrokenProcessPool``) are re-run, on a freshly
        spawned pool, up to ``job_retries`` times with capped exponential
        backoff and full jitter; exhaustion fails the job with
        :class:`JobRetriesExhaustedError` chaining the last crash.
        """
        attempt = 0
        while True:
            state.attempts = attempt + 1
            state.track(lane.runner)
            try:
                return await asyncio.wait_for(
                    lane.run(partial(self._execute, state)), self.job_timeout
                )
            except asyncio.TimeoutError:
                state.settle()
                lane.abandon()
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
        """Run one attempt of a job on its worker's thread; returns the payload.

        The worker's runner (``state.runner``) outlives the job, so the
        job's progress is the change in that runner's counters over this
        attempt (see :meth:`JobState.track`).  A case batch hands the runner
        its admission-time cache lookups (``state.probed``), which are not
        repeated.  Every miss simulates in one of the runner's spawned
        children; the chaos harness's ``kill_worker`` fault SIGKILLs that
        child mid-job (see :meth:`~repro.exp.runner.ExperimentRunner._execute`),
        and the dead pool's ``BrokenProcessPool`` is what the supervisor
        retries.
        """
        runner = state.runner
        hook = self.pre_execute
        if hook is not None:
            hook(state)
        request = state.request
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
        batch = runner.run_batch(list(request.cases), probed=state.probed)
        return {key: result.to_dict() for key, result in batch.items()}

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
