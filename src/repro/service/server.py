"""The asyncio HTTP server: routes the ``/v1`` endpoints to the job manager.

Endpoints (all JSON, wrapped in versioned wire envelopes, see
:func:`repro.common.serialize.wire_envelope`):

* ``POST /v1/jobs`` -- submit a :class:`~repro.exp.request.JobRequest`
  (named figure campaign or explicit job batch).  Answers ``202`` with a
  ``job_accepted`` envelope (whose ``status`` is already ``completed``
  when every case of a batch was in the result cache), or ``200`` when
  the submission was coalesced with an identical in-flight job, or
  ``429`` (+ ``Retry-After``) when admission control rejects it -- with
  error code ``overloaded`` (global queue full) or
  ``tenant_quota_exceeded`` (this tenant's quota).
* ``GET /v1/jobs/{id}`` -- job status: lifecycle state, tenant/priority,
  progress counters (simulations executed vs cache hits so far) and, once
  completed, the full result payload.  ``?wait=SECONDS`` makes it a long
  poll: the answer is held until the job completes or fails, or the wait
  (clamped to :data:`MAX_POLL_WAIT_SECONDS`) runs out.  ``?result=0``
  leaves the payload out.
* ``GET /v1/results/{key}`` -- direct lookup of one cached simulation by its
  content address (the :func:`repro.exp.runner.job_key` of a ``SimJob``).
* ``GET /v1/stats`` -- per-tenant usage and latency accounting (weights,
  quotas, work shares, queue-wait and service-time percentiles).
* ``GET /v1/healthz`` -- liveness, version, queue depth, job statistics and
  a per-tenant queue summary.
* ``GET /v1/metrics`` -- the server's metrics registry in Prometheus text
  exposition format (``?format=json`` for the JSON document instead).

**Tracing.** Every request is assigned a trace ID: a valid incoming
``X-Repro-Trace-Id`` header is honoured, anything else gets a freshly minted
one.  The ID travels only in that header: the response echoes it there (no
envelope repeats it), the admitted job records it, every log line the
request produces carries it, and so does every call a shard makes to its
peers on the request's behalf.

**Tenancy.** A submission's tenant and priority are its envelope's
``tenant`` and ``priority`` fields, and nothing else; without a tenant it
lands on the default tenant, without a priority on the lane its work
implies.  A tenant configured with an auth token only accepts submissions
carrying ``Authorization: Bearer <token>``.
Every error body carries a structured ``code`` from
:class:`repro.common.errors.ErrorCode`.

**Sharding.** ``repro serve --shards N`` runs N of these servers as
separate processes over one shared result cache (see
:mod:`repro.service.shards` for the port layout and supervisor).  A sharded
server answers ``/v1/stats`` and ``/v1/metrics`` with the *merged*
cross-shard view (``?scope=local`` asks for this shard alone), proxies
status polls for jobs its peers own (sharded job IDs embed the owner's
index, and a long poll's wait travels with it), and falls back to its
peers for ``/v1/results/{key}`` misses.

Run it with ``python -m repro serve`` (``--tenants tenants.json`` for the
roster, ``--shards N`` for scale-out) or embed :class:`ReproService` (used
by the test suite, which starts it on an ephemeral port).
"""

from __future__ import annotations

import asyncio
import hmac
import math
import os
import re
import signal
import socket
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Dict, List, Optional, Set, Tuple
from urllib.parse import quote, urlencode

from repro.common.errors import (
    ConfigurationError,
    ErrorCode,
    ServiceError,
    ServiceOverloadedError,
    WorkloadError,
)
from repro.common.serialize import WIRE_SCHEMA_VERSION, read_envelope, wire_envelope
from repro.exp.cache import ResultCache
from repro.exp.request import JobRequest
from repro.faults import FaultInjector, FaultSpec, get_injector, install
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    TRACE_ID_HEADER,
    current_trace_id,
    ensure_trace_id,
    reset_trace_id,
    set_trace_id,
)
from repro.service.http import (
    HTTPRequest,
    ProtocolError,
    json_response,
    read_request,
    text_response,
)
from repro.service.jobs import JobManager
from repro.service.journal import journal_path
from repro.service.shards import (
    PEER_FETCH_TIMEOUT,
    fetch_json,
    group_stats_document,
    merge_metrics_documents,
    peer_host,
    shard_port,
)
from repro.service.tenancy import TenancyConfig

log = get_logger("service.server")

#: Whether this platform can bind the shared public port from every shard
#: (the kernel then load-balances accepted connections across them).
REUSE_PORT_AVAILABLE = hasattr(socket, "SO_REUSEPORT")

#: Sharded job IDs: ``job-s<shard>-<counter>`` (minted by JobManager when
#: shard_count > 1); the embedded shard index routes status-poll proxying.
#: Matched whole and ASCII-only, so a proxied id is safe in a request line.
_SHARDED_JOB_ID = re.compile(r"job-s([0-9]+)-[0-9]+")

#: The longest a ``GET /v1/jobs/{id}?wait=`` long poll is held; a larger
#: wait is clamped to it.
MAX_POLL_WAIT_SECONDS = 30.0

#: Default TCP port (``repro`` on a phone keypad would not fit; 8077 does).
#: Mirrored by the CLI's ``DEFAULT_SERVICE_PORT`` (kept lazy-import-free
#: there); a test asserts the two stay equal.
DEFAULT_PORT = 8077

#: A client gets this long to deliver a complete request; slow or silent
#: connections are dropped so they cannot pin handler coroutines forever.
READ_TIMEOUT_SECONDS = 30.0

#: A peer shard is marked *suspect* after this many consecutive failed
#: calls and excluded from fan-out/merging (no more hanging aggregate
#: endpoints on a dead peer) ...
SUSPECT_AFTER = 3
#: ... until it has been left alone this long, after which one probe call
#: is allowed through; success clears the suspicion, failure re-arms it.
SUSPECT_RETRY_SECONDS = 5.0

#: HTTP status -> error code for protocol-level failures.
_CODE_FOR_STATUS = {
    400: ErrorCode.BAD_REQUEST,
    401: ErrorCode.UNAUTHORIZED,
    404: ErrorCode.NOT_FOUND,
    405: ErrorCode.METHOD_NOT_ALLOWED,
    413: ErrorCode.BAD_REQUEST,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to bring the service up."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Concurrent request executions (worker tasks, each with its thread).
    workers: int = 1
    #: Simulation child processes each worker keeps (at least one): every
    #: simulation runs in one of them, never in the server's interpreter.
    sim_jobs: int = 1
    #: Admission-control bound on queued (not yet running) jobs.
    queue_limit: int = 8
    #: Shared result cache directory; ``None`` disables caching.
    cache_dir: Optional[str] = ".repro-cache"
    #: Finished jobs retained for status queries.
    history_limit: int = 256
    #: Tenant roster, quotas and weights; ``None`` runs the open
    #: single-tenant-compatible policy.
    tenancy: Optional[TenancyConfig] = None
    #: This process's place in a ``repro serve --shards N`` group.  A lone
    #: server keeps the defaults (one shard, index 0).  Sharded processes
    #: each bind their well-known peer port (``port + 1 + shard_index``)
    #: plus the shared public ``port`` via SO_REUSEPORT where available
    #: (shard 0 alone otherwise); see :mod:`repro.service.shards`.
    shard_index: int = 0
    shard_count: int = 1
    #: Per-job wall-clock execution bound in seconds (``None``/0 = off, the
    #: default: ``--full`` campaigns legitimately run for a long time).
    job_timeout: Optional[float] = None
    #: Supervised retries for retryable job failures (worker crashes).
    job_retries: int = 2
    #: Whether to keep the durable job journal (requires a cache dir; the
    #: journal lives beside the cached results it makes replay idempotent).
    journal: bool = True
    #: Seconds a SIGTERM-initiated drain waits for in-flight jobs.
    drain_timeout: float = 10.0
    #: Fault spec activating chaos injection (``None`` = no faults); the
    #: CLI decodes ``--faults FILE.json`` into it before serving.
    faults: Optional[FaultSpec] = None


class ReproService:
    """One server instance: a :class:`JobManager` behind an asyncio listener."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # One registry per server instance: embedded test servers stay
        # isolated from each other.
        self.metrics = MetricsRegistry()
        # The injector is process-wide (cache and shard code that never see
        # this instance consult it), so a service installs exactly its own
        # spec, none included: an earlier service's faults never leak in.
        injector = FaultInjector(config.faults) if config.faults is not None else None
        install(injector)
        if injector is not None:
            injector.bind_metrics(self.metrics)
        cache = (
            ResultCache(config.cache_dir, metrics=self.metrics)
            if config.cache_dir
            else None
        )
        self.manager = JobManager(
            cache=cache,
            workers=config.workers,
            sim_jobs=config.sim_jobs,
            queue_limit=config.queue_limit,
            history_limit=config.history_limit,
            tenancy=config.tenancy,
            metrics=self.metrics,
            shard_index=config.shard_index,
            shard_count=config.shard_count,
            job_timeout=config.job_timeout,
            job_retries=config.job_retries,
        )
        from repro._version import __version__

        self.metrics.gauge(
            "repro_build_info",
            "Constant 1; the labels carry the build's version",
            labelnames=("version",),
        ).labels(__version__).set(1)
        self._http_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint, method and status",
            labelnames=("endpoint", "method", "status"),
        )
        self._http_latency = self.metrics.summary(
            "repro_http_request_seconds",
            "Wall-clock time spent handling each request",
            labelnames=("endpoint",),
        )
        self._servers: List[asyncio.AbstractServer] = []
        #: Set while a SIGTERM drain runs: polls keep being served (held
        #: long polls keep waiting), new submissions get 503 + Retry-After
        #: (``ErrorCode.DRAINING``).
        self._draining = False
        #: Set by :meth:`stop` to answer every held long poll at once; the
        #: connection tasks parked in :meth:`_hold` are what it waits for.
        self._stopping = asyncio.Event()
        self._held_polls: Set["asyncio.Task[Any]"] = set()
        #: Consecutive failed calls per peer shard index, and when each
        #: suspect peer was last declared so (monotonic clock).
        self._peer_failures: Dict[int, int] = {}
        self._peer_suspect_since: Dict[int, float] = {}
        self._peer_suspect_gauge = self.metrics.gauge(
            "repro_peer_suspect",
            "1 while the labelled peer shard is excluded as suspect",
            labelnames=("peer",),
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of the canonical listener (resolves
        port 0 to the real one; a shard's canonical port is its peer port)."""
        if not self._servers or not self._servers[0].sockets:
            return (self.config.host, self.config.port)
        host, port = self._servers[0].sockets[0].getsockname()[:2]
        return (host, port)

    async def start(self) -> None:
        config = self.config
        if config.cache_dir and config.journal:
            # Replay (and rotate) any previous generation's journal before
            # the listeners open: re-queued jobs must be admitted before any
            # new submission can race them, and a crashed server's accepted
            # work is thereby never lost.
            self.manager.recover_journal(
                journal_path(config.cache_dir, config.shard_index)
            )
        await self.manager.start()
        for port, reuse_port in self._listen_ports():
            try:
                server = await asyncio.start_server(
                    self._handle_client, host=config.host, port=port, reuse_port=reuse_port
                )
            except OSError as error:
                await self.stop()
                reason = os.strerror(error.errno) if (error.errno or 0) > 0 else str(error)
                raise ServiceError(f"cannot listen on {config.host}:{port}: {reason}") from None
            self._servers.append(server)

    def _listen_ports(self) -> List[Tuple[int, bool]]:
        """``(port, reuse_port)`` for each listener, canonical one first.

        A lone server binds its port.  A shard binds its well-known peer
        port (its canonical address), then the shared public port -- every
        shard when SO_REUSEPORT lets the kernel spread accepts, else shard 0
        alone and clients fall back to round-robining the peer ports.
        """
        config = self.config
        if config.shard_count <= 1:
            return [(config.port, False)]
        ports = [(shard_port(config.port, config.shard_index), False)]
        if REUSE_PORT_AVAILABLE or config.shard_index == 0:
            ports.append((config.port, REUSE_PORT_AVAILABLE))
        return ports

    async def stop(self) -> None:
        """Close the listeners, answer the held long polls, stop the workers.

        The order matters.  Held polls answer first, with their job's
        current status (``queued`` or ``running``): from Python 3.12.1 on,
        ``wait_closed()`` waits for every open connection, so a held poll
        would stall it for its whole wait.  The workers are cancelled last:
        a cancelled job reads ``failed``, which would be untrue, since the
        journal re-queues it for the next generation.  A released client's
        next poll is refused.
        """
        for server in self._servers:
            server.close()
        held = set(self._held_polls)
        self._stopping.set()
        if held:
            await asyncio.wait(held)
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        await self.manager.stop()

    async def drain(self, timeout: float) -> bool:
        """Graceful-shutdown drain: stop admitting, finish what's in flight.

        The listeners stay open (pollers must be able to collect results and
        peers to proxy), but ``POST /v1/jobs`` answers 503 + ``Retry-After``
        for the duration.  Returns ``True`` when the queue and in-flight set
        emptied within ``timeout``; on ``False`` the stragglers stay in the
        journal as admitted-but-unfinished, so the next start re-queues them
        -- bounded drain never means lost work.
        """
        self._draining = True
        log.info("draining: rejecting new submissions, finishing in-flight jobs")
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            if (
                self.manager.scheduler.queued_total() == 0
                and self.manager.scheduler.inflight_total() == 0
            ):
                log.info("drain complete: no queued or in-flight jobs remain")
                return True
            await asyncio.sleep(0.05)
        log.warning(
            "drain timed out after %.1fs with %d queued / %d in-flight jobs "
            "(they remain journalled for replay)",
            timeout,
            self.manager.scheduler.queued_total(),
            self.manager.scheduler.inflight_total(),
        )
        return False

    async def serve_forever(self) -> None:
        assert self._servers, "start() must run before serve_forever()"
        await asyncio.gather(*(server.serve_forever() for server in self._servers))

    # -- connection handling -------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request: Optional[HTTPRequest] = None
        # Mint a trace ID up front so even unparseable requests get a
        # correlated error response; a valid incoming header replaces it.
        trace_id = ensure_trace_id(None)
        started = time.monotonic()
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=READ_TIMEOUT_SECONDS
                )
                if request is None:
                    return
                trace_id = ensure_trace_id(request.headers.get("x-repro-trace-id"))
                token = set_trace_id(trace_id)
                try:
                    response = await self._dispatch(request, trace_id)
                finally:
                    reset_trace_id(token)
            except asyncio.TimeoutError:
                response = _error_response(400, "request not received in time")
            except ProtocolError as error:
                response = _error_response(error.status, error.message)
            except ServiceOverloadedError as error:
                retry_after = error.retry_after if error.retry_after is not None else 1
                response = _error_response(
                    429,
                    str(error),
                    code=error.code,
                    tenant=error.tenant,
                    retry_after=retry_after,
                    extra=(("Retry-After", str(int(retry_after))),),
                )
            except (ConfigurationError, WorkloadError) as error:
                response = _error_response(400, str(error))
            except Exception as error:  # noqa: BLE001 -- never drop the connection
                response = _error_response(
                    500, f"{type(error).__name__}: {error}", code=ErrorCode.INTERNAL
                )
            response = _with_trace_header(response, trace_id)
            self._observe(request, response, time.monotonic() - started, trace_id)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _observe(
        self,
        request: Optional[HTTPRequest],
        response: bytes,
        elapsed: float,
        trace_id: str,
    ) -> None:
        """Account one finished exchange: counters, latency, access log."""
        try:
            status = int(response.split(b" ", 2)[1])
        except (IndexError, ValueError):
            status = 0
        endpoint = _endpoint_label(request)
        method = request.method if request is not None else "-"
        self._http_requests.labels(endpoint, method, str(status)).inc()
        self._http_latency.labels(endpoint).record(elapsed)
        log.info(
            "%s %s -> %d in %.4fs",
            method,
            request.path if request is not None else "<unparsed>",
            status,
            elapsed,
            extra={"trace_id": trace_id, "endpoint": endpoint},
        )

    # -- submission helpers --------------------------------------------

    def _authorize(self, tenant: Any, request: HTTPRequest) -> None:
        """Enforce the auth token of a submission's tenant (``None`` = the
        default tenant), when one is configured."""
        tenancy = self.manager.tenancy
        spec = tenancy.spec_for(tenancy.default_tenant if tenant is None else tenant)
        if spec.token is None:
            return
        presented = request.headers.get("authorization", "")
        scheme, _, credential = presented.partition(" ")
        if scheme.lower() != "bearer" or not hmac.compare_digest(
            credential.strip(), spec.token
        ):
            raise ProtocolError(
                401, f"tenant {spec.name!r} requires a valid Authorization: Bearer token"
            )

    async def _dispatch(self, request: HTTPRequest, trace_id: str) -> bytes:
        path, method = request.path, request.method
        sharded = self.config.shard_count > 1
        local_only = request.query.get("scope") == "local"
        if path == "/v1/healthz":
            _require(method, "GET")
            document = self.manager.health()
            document["draining"] = self._draining
            if sharded:
                document["shard"] = self._shard_info()
            return json_response(200, wire_envelope("health", document))
        if path == "/v1/stats":
            _require(method, "GET")
            if sharded and not local_only:
                document = group_stats_document(
                    await self._group_metrics_documents(),
                    self.manager.tenancy,
                    expected=self.config.shard_count,
                )
            else:
                document = self.manager.stats_document()
                if sharded:
                    document["shard"] = self._shard_info()
            return json_response(200, wire_envelope("stats", document))
        if path == "/v1/metrics":
            _require(method, "GET")
            registry = self.metrics
            if sharded and not local_only:
                documents = await self._group_metrics_documents()
                registry = merge_metrics_documents([document for _, document in documents])
            if request.query.get("format") == "json":
                return json_response(200, wire_envelope("metrics", registry.as_document()))
            return text_response(200, registry.render_text())
        if path == "/v1/jobs":
            _require(method, "POST")
            injector = get_injector()
            if injector is not None and injector.should("http_500"):
                return _error_response(
                    500, "fault injection: forced server error", code=ErrorCode.INTERNAL
                )
            if self._draining:
                retry_after = max(1, int(self.config.drain_timeout))
                return _error_response(
                    503,
                    "server is draining for shutdown; retry against another instance",
                    code=ErrorCode.DRAINING,
                    retry_after=retry_after,
                    extra=(("Retry-After", str(retry_after)),),
                )
            envelope = read_envelope(request.json(), "job_request")
            job_request = JobRequest.from_dict(envelope.payload)
            self._authorize(envelope.tenant, request)
            state, coalesced = self.manager.submit(
                job_request,
                trace_id=trace_id,
                tenant=envelope.tenant,
                priority=envelope.priority,
            )
            receipt = {
                "job_id": state.job_id,
                "request_key": state.key,
                "status": state.status.value,
                "coalesced": coalesced,
                "tenant": state.tenant,
                "priority": state.lane,
            }
            return json_response(
                200 if coalesced else 202, wire_envelope("job_accepted", receipt)
            )
        if path.startswith("/v1/jobs/"):
            _require(method, "GET")
            job_id = path[len("/v1/jobs/") :]
            wait = _poll_wait(request.query.get("wait"))
            state = self.manager.jobs.get(job_id)
            if state is None:
                if sharded and not local_only:
                    proxied = await self._proxy_job_status(job_id, request, wait)
                    if proxied is not None:
                        return proxied
                return _error_response(404, f"unknown job {job_id!r}")
            if wait > 0 and not state.finished.is_set():
                # A long poll answers from the state held here, even if the
                # job is trimmed from history meanwhile.
                await self._hold(state.finished.wait(), wait)
            include_result = request.query.get("result", "1") != "0"
            return json_response(
                200, wire_envelope("job_status", state.view(include_result=include_result))
            )
        if path.startswith("/v1/results/"):
            _require(method, "GET")
            key = path[len("/v1/results/") :]
            result = self.manager.result_for(key)
            if result is None and sharded and not local_only:
                result = await self._peer_result(key)
            if result is None:
                return _error_response(404, f"no cached result for key {key!r}")
            return json_response(
                200, wire_envelope("cached_result", {"key": key, "result": result})
            )
        return _error_response(404, f"unknown endpoint {method} {path}")

    async def _hold(
        self, awaitable: Awaitable[Any], timeout: Optional[float]
    ) -> Optional["asyncio.Task[Any]"]:
        """Await ``awaitable`` until it finishes, ``timeout`` passes or
        :meth:`stop` begins; returns its task if it finished, else ``None``
        (the awaitable is then cancelled)."""
        task = asyncio.ensure_future(awaitable)
        stopping = asyncio.ensure_future(self._stopping.wait())
        holder = asyncio.current_task()
        self._held_polls.add(holder)
        try:
            await asyncio.wait(
                (task, stopping), timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            self._held_polls.discard(holder)
            stopping.cancel()
            finished = task.done()
            if not finished:
                task.cancel()
        return task if finished else None

    # -- cross-shard helpers -------------------------------------------

    def _peer_usable(self, index: int) -> bool:
        """Whether peer ``index`` should be called at all right now.

        Healthy and not-yet-suspect peers are always usable; a suspect peer
        is skipped until :data:`SUSPECT_RETRY_SECONDS` have passed, then one
        probe call is let through (its outcome re-arms or clears suspicion).
        """
        if self._peer_failures.get(index, 0) < SUSPECT_AFTER:
            return True
        since = self._peer_suspect_since.get(index, 0.0)
        return time.monotonic() - since >= SUSPECT_RETRY_SECONDS

    def _peer_ok(self, index: int) -> None:
        """A call to peer ``index`` succeeded: clear any suspicion."""
        if self._peer_failures.get(index, 0) >= SUSPECT_AFTER:
            log.info("peer shard %d recovered; resuming fan-out to it", index)
        self._peer_failures[index] = 0
        self._peer_suspect_since.pop(index, None)
        self._peer_suspect_gauge.labels(str(index)).set(0)

    def _peer_failed(self, index: int) -> None:
        """A call to peer ``index`` failed: count toward (or renew) suspicion."""
        count = self._peer_failures.get(index, 0) + 1
        self._peer_failures[index] = count
        if count >= SUSPECT_AFTER:
            self._peer_suspect_since[index] = time.monotonic()
            self._peer_suspect_gauge.labels(str(index)).set(1)
            if count == SUSPECT_AFTER:
                log.warning(
                    "peer shard %d marked suspect after %d consecutive failures; "
                    "excluding it from fan-out for %.0fs",
                    index,
                    count,
                    SUSPECT_RETRY_SECONDS,
                )

    def _shard_info(self) -> Dict[str, Any]:
        """This shard's place in the group, for health/stats documents."""
        config = self.config
        return {
            "index": config.shard_index,
            "count": config.shard_count,
            "port": shard_port(config.port, config.shard_index),
            "public_port": config.port,
            "so_reuseport": REUSE_PORT_AVAILABLE,
        }

    async def _peer_get(
        self, index: int, path: str, extra_seconds: float = 0.0
    ) -> Optional[Tuple[int, Any]]:
        """``GET path`` on peer shard ``index``: every call to a peer goes
        through here.

        A suspect peer (:meth:`_peer_usable`) is not dialled; every call's
        outcome feeds the suspicion tracking; the request's trace ID goes
        with it, so the peer logs the call under the caller's ID.  The call
        may take :data:`PEER_FETCH_TIMEOUT` plus ``extra_seconds`` (a long
        poll's wait).  Returns ``(status, body)``, or ``None`` when the peer
        was skipped or did not answer.
        """
        if not self._peer_usable(index):
            return None
        config = self.config
        trace_id = current_trace_id()
        try:
            answer = await fetch_json(
                peer_host(config.host),
                shard_port(config.port, index),
                path,
                timeout=PEER_FETCH_TIMEOUT + extra_seconds,
                headers=((TRACE_ID_HEADER, trace_id),) if trace_id else (),
            )
        except (OSError, asyncio.TimeoutError, ValueError) as error:
            log.debug("peer shard %d did not answer %s: %s", index, path, error)
            self._peer_failed(index)
            return None
        self._peer_ok(index)
        return answer

    async def _peer_payloads(self, path: str) -> List[Tuple[int, Dict[str, Any]]]:
        """``(shard index, envelope payload)`` of every peer that answers
        ``path`` with 200, in shard order; the peers are called at once."""
        config = self.config
        peers = [index for index in range(config.shard_count) if index != config.shard_index]
        answers = await asyncio.gather(*(self._peer_get(index, path) for index in peers))
        payloads = []
        for index, answer in zip(peers, answers):
            if answer is None:
                continue
            status, body = answer
            if status == 200 and isinstance(body, dict) and isinstance(body.get("payload"), dict):
                payloads.append((index, body["payload"]))
        return payloads

    async def _group_metrics_documents(self) -> List[Tuple[int, Dict[str, Any]]]:
        """``(shard index, metrics document)`` for this shard and every
        responding peer -- the input of both cross-shard views.

        A peer that is suspect, unreachable or misbehaving is left out (the
        merged document's ``shards.responding`` records the shortfall): a
        wedged peer must never take the aggregate endpoints down with it.
        """
        peers = await self._peer_payloads("/v1/metrics?format=json&scope=local")
        return [(self.config.shard_index, self.metrics.as_document())] + peers

    async def _proxy_job_status(
        self, job_id: str, request: HTTPRequest, wait: float
    ) -> Optional[bytes]:
        """Serve a status poll for a job another shard owns.

        With SO_REUSEPORT a poll can land on any shard; sharded job IDs
        embed the minting shard's index, so a local miss on a well-formed
        foreign ID is fetched from the owner's peer port and re-served
        verbatim (``scope=local`` stops the owner proxying onward).  A long
        poll's ``wait`` goes with it, and the fetch may take that much
        longer.  Returns ``None`` -- caller answers 404 -- for unparseable
        IDs or out-of-range owners.  A suspect or unreachable owner is
        answered 503 ``peer_unavailable`` with a ``Retry-After`` (the job
        may well exist there), and so is a poll still held when
        :meth:`stop` begins (``draining``): this shard cannot tell the
        job's status any more.
        """
        match = _SHARDED_JOB_ID.fullmatch(job_id)
        if match is None:
            return None
        owner = int(match.group(1))
        if owner == self.config.shard_index or owner >= self.config.shard_count:
            return None
        query = urlencode(
            {"result": request.query.get("result", "1"), "wait": wait, "scope": "local"}
        )
        done = await self._hold(self._peer_get(owner, f"/v1/jobs/{job_id}?{query}", wait), None)
        if done is None:
            return _error_response(
                503,
                "server is shutting down; poll another instance",
                code=ErrorCode.DRAINING,
            )
        answer = done.result()
        if answer is None or not isinstance(answer[1], dict):
            since = self._peer_suspect_since.get(owner)
            left = 0.0 if since is None else SUSPECT_RETRY_SECONDS - (time.monotonic() - since)
            retry_after = max(1, math.ceil(left))
            return _error_response(
                503,
                f"shard {owner}, which owns job {job_id!r}, is not answering; poll again",
                code=ErrorCode.PEER_UNAVAILABLE,
                retry_after=retry_after,
                extra=(("Retry-After", str(retry_after)),),
            )
        status, body = answer
        return json_response(status, body)

    async def _peer_result(self, key: str) -> Optional[Any]:
        """Ask the other shards for a result this shard does not hold.

        Completed payloads are retained per-shard (in the owning shard's
        ``_finished_results``), so a trimmed poller's fallback fetch can
        land anywhere; first peer holding the key wins.
        """
        path = f"/v1/results/{quote(key, safe='')}?scope=local"
        for _, payload in await self._peer_payloads(path):
            if payload.get("result") is not None:
                return payload["result"]
        return None


def _poll_wait(raw: Optional[str]) -> float:
    """The seconds a ``?wait=`` long poll may be held: none when absent,
    clamped to :data:`MAX_POLL_WAIT_SECONDS`, and a 400 for anything but a
    finite, non-negative number."""
    if raw is None:
        return 0.0
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ProtocolError(
            400, f"wait must be a finite, non-negative number of seconds, not {raw!r}"
        )
    return min(seconds, MAX_POLL_WAIT_SECONDS)


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise ProtocolError(405, f"method {method} not allowed (use {expected})")


def _with_trace_header(response: bytes, trace_id: str) -> bytes:
    """Insert ``X-Repro-Trace-Id`` right after the status line.

    Central injection means every response -- success, error envelope, even
    a 500 from an unexpected exception -- carries the request's trace ID.
    """
    head, separator, rest = response.partition(b"\r\n")
    header = f"{TRACE_ID_HEADER}: {trace_id}\r\n".encode("latin-1")
    return head + separator + header + rest


def _endpoint_label(request: Optional[HTTPRequest]) -> str:
    """A bounded-cardinality endpoint label for the request metrics."""
    if request is None:
        return "unparsed"
    path = request.path
    if path in ("/v1/healthz", "/v1/stats", "/v1/metrics", "/v1/jobs"):
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    if path.startswith("/v1/results/"):
        return "/v1/results/{key}"
    return "other"


def _error_response(
    status: int,
    message: str,
    code: Optional[ErrorCode] = None,
    tenant: Optional[str] = None,
    retry_after: Optional[float] = None,
    extra=(),
) -> bytes:
    """An ``error`` envelope with the structured taxonomy fields."""
    if code is None:
        code = _CODE_FOR_STATUS.get(status, ErrorCode.INTERNAL)
    payload: Dict[str, Any] = {"status": status, "code": code.value, "message": message}
    if tenant is not None:
        payload["tenant"] = tenant
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return json_response(status, wire_envelope("error", payload), extra)


async def run_service(config: ServiceConfig) -> None:
    """Start the service and serve until cancelled (the ``serve`` CLI verb).

    SIGTERM triggers a graceful shutdown: in-flight jobs drain (bounded by
    ``config.drain_timeout``), new submissions get 503 + ``Retry-After``
    meanwhile, the journal is flushed on stop, and the process exits 0.
    """
    service = ReproService(config)
    await service.start()
    host, port = service.address
    cache = config.cache_dir or "disabled"
    tenancy = service.manager.tenancy
    tenants = (
        ",".join(spec.name for spec in tenancy.tenants) if tenancy.tenants else "open"
    )
    shard = (
        f", shard={config.shard_index}/{config.shard_count}"
        if config.shard_count > 1
        else ""
    )
    log.info(
        "serving on http://%s:%d (workers=%d, sim-jobs=%d, queue-limit=%d, "
        "cache=%s, tenants=%s, wire-schema=%d%s)",
        host,
        port,
        config.workers,
        config.sim_jobs,
        config.queue_limit,
        cache,
        tenants,
        WIRE_SCHEMA_VERSION,
        shard,
    )
    loop = asyncio.get_running_loop()
    terminated = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, terminated.set)
        sigterm_handled = True
    except (NotImplementedError, RuntimeError, ValueError):
        # Non-main thread or a platform without signal-handler support
        # (Windows event loops): fall back to cancellation-only shutdown.
        sigterm_handled = False
    serve_task = asyncio.ensure_future(service.serve_forever())
    stop_task = asyncio.ensure_future(terminated.wait())
    try:
        await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        if terminated.is_set():
            log.info("SIGTERM received: beginning graceful drain")
            await service.drain(config.drain_timeout)
    except asyncio.CancelledError:
        pass
    finally:
        serve_task.cancel()
        stop_task.cancel()
        await asyncio.gather(serve_task, stop_task, return_exceptions=True)
        if sigterm_handled:
            loop.remove_signal_handler(signal.SIGTERM)
        await service.stop()


def serve(config: ServiceConfig) -> None:
    """Blocking entry point; returns cleanly on Ctrl-C."""
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:
        log.info("server stopped")
