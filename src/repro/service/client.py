"""The client SDK: a small blocking client over the service's wire schema.

Pure standard library (``urllib``); mirrors the ``/v1`` endpoints.  Every
request carries an ``X-Repro-Trace-Id`` correlation header (minted here when
the caller has none), and the server answers with the ID it used in the
same header (see :attr:`SubmitReceipt.trace_id`); no envelope repeats it.
A submission's tenant and priority ride its wire envelope, and only there.
Connection configuration (base URL, timeout, tenant identity, auth token)
lives on the client; per-call knobs are keyword-only on :meth:`submit`:

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8077", tenant="alpha", token="s3cret")
    receipt = client.submit(figure="fig7", instructions=8_000, priority="interactive")
    status = client.wait(receipt.job_id)          # long-poll until completed
    print(status["progress"], status["result"])
    client.stats()["tenants"]["alpha"]            # usage/latency accounting

Errors surface as :class:`~repro.common.errors.ServiceError`.  Admission
rejections raise :class:`~repro.common.errors.ServiceOverloadedError`
carrying the structured fields from the error body -- ``code``
(``overloaded`` vs ``tenant_quota_exceeded``), ``tenant`` and
``retry_after`` -- so callers back off without parsing message strings.
Only resubmissions back off; waiting for a job does not sleep at all:
:meth:`ServiceClient.wait` long-polls ``GET /v1/jobs/{id}?wait=SECONDS``,
and the server answers as soon as the job finishes.
``python -m repro submit`` is a thin wrapper over this class.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple
from urllib.parse import urlencode

from repro.common.errors import (
    ErrorCode,
    JobNotFoundError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.common.serialize import open_envelope, wire_envelope
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.obs.tracing import TRACE_ID_HEADER, current_trace_id, new_trace_id

#: A direct (proxy-free) opener: the service is always an explicit HTTP peer,
#: and honouring http_proxy/https_proxy env vars would route even loopback
#: requests through a corporate proxy that cannot reach the caller's 127.0.0.1.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))

#: ``wait=True`` submissions that hit a 429 resubmit with a capped
#: exponential backoff with full jitter -- attempt ``n`` sleeps
#: ``uniform(0, min(cap, base * 2**n))`` -- except that a ``Retry-After``
#: hint from the server takes precedence over the computed backoff.
RESUBMIT_BACKOFF_BASE = 0.25
RESUBMIT_BACKOFF_CAP = 10.0


@dataclass(frozen=True)
class SubmitReceipt:
    """What ``POST /v1/jobs`` answers: the job handle and how it was admitted."""

    job_id: str
    request_key: str
    status: str
    coalesced: bool
    #: The tenant/lane the server resolved the submission to.
    tenant: Optional[str] = None
    priority: Optional[str] = None
    #: The correlation ID the server admitted this submission under: its
    #: answer's ``X-Repro-Trace-Id`` header.  It is the ID the client sent,
    #: unless the server found that one invalid and minted its own.
    trace_id: Optional[str] = None


class ServiceClient:
    """Blocking HTTP client for one ``repro serve`` instance.

    ``tenant`` and ``token`` are connection-level identity: every submission
    names the client's tenant in its envelope (overridable per call) and
    carries ``Authorization: Bearer <token>`` when a token is configured.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8077",
        timeout: float = 60.0,
        *,
        tenant: Optional[str] = None,
        token: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.tenant = tenant
        self.token = token

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        echoed: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """Issue one request; returns ``(status, parsed JSON body)``.

        Every request carries an ``X-Repro-Trace-Id``: the caller's explicit
        ``trace_id``, else the ambient one (:func:`current_trace_id`), else a
        freshly minted ID -- so even ad-hoc GETs are correlatable in the
        server's logs.  ``echoed``, when given, receives the trace ID of a
        successful answer's header under :data:`TRACE_ID_HEADER`.  HTTP
        error statuses are returned (not raised) so callers can map them to
        domain errors; transport failures raise :class:`ServiceError`.
        """
        data = None
        if trace_id is None:
            trace_id = current_trace_id() or new_trace_id()
        headers = {"Accept": "application/json", TRACE_ID_HEADER: trace_id}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        try:
            with _OPENER.open(request, timeout=self.timeout) as response:
                if echoed is not None and TRACE_ID_HEADER in response.headers:
                    echoed[TRACE_ID_HEADER] = response.headers[TRACE_ID_HEADER]
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                parsed = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                parsed = wire_envelope(
                    "error",
                    {"status": error.code, "message": body.decode("utf-8", "replace")},
                )
            return error.code, parsed
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot reach {self.base_url}: {error.reason}") from None
        except (OSError, http.client.HTTPException, json.JSONDecodeError) as error:
            # Read stalls (socket.timeout), resets mid-body and truncated or
            # non-JSON responses must surface as ServiceError too, not as raw
            # tracebacks the CLI cannot map to an exit code.
            raise ServiceError(
                f"transport failure talking to {self.base_url}: "
                f"{type(error).__name__}: {error}"
            ) from None

    @staticmethod
    def _error_body(data: Any) -> Dict[str, Any]:
        """The structured error payload (``{}`` when malformed)."""
        try:
            payload = open_envelope(data, "error")
            return payload if isinstance(payload, dict) else {"message": str(payload)}
        except Exception:  # noqa: BLE001 -- any malformed error body
            return {"message": str(data)}

    @classmethod
    def _error_message(cls, data: Any) -> str:
        body = cls._error_body(data)
        return str(body.get("message", body))

    @classmethod
    def _overloaded_error(cls, data: Any) -> ServiceOverloadedError:
        """Map a 429 body to :class:`ServiceOverloadedError` with its fields."""
        body = cls._error_body(data)
        try:
            code = ErrorCode(body.get("code", ErrorCode.OVERLOADED.value))
        except ValueError:
            code = ErrorCode.OVERLOADED
        return ServiceOverloadedError(
            str(body.get("message", "service overloaded")),
            code=code,
            tenant=body.get("tenant"),
            retry_after=body.get("retry_after"),
        )

    @staticmethod
    def _resubmit_delay(retry_after: Optional[float], attempt: int) -> float:
        """How long a ``wait=True`` 429 resubmission should back off.

        The server's ``Retry-After`` hint is honoured when present (with a
        little added jitter so simultaneously rejected clients do not
        resubmit in lockstep); otherwise capped exponential with full jitter.
        """
        if retry_after is not None and retry_after > 0:
            return float(retry_after) * random.uniform(1.0, 1.25)
        return random.uniform(
            0.0, min(RESUBMIT_BACKOFF_CAP, RESUBMIT_BACKOFF_BASE * 2**attempt)
        )

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz``: liveness, version, queue and job statistics."""
        status, data = self._request("GET", "/v1/healthz")
        if status != 200:
            raise ServiceError(f"healthz failed ({status}): {self._error_message(data)}")
        return open_envelope(data, "health")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats``: per-tenant usage and latency accounting."""
        status, data = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(f"stats failed ({status}): {self._error_message(data)}")
        return open_envelope(data, "stats")

    def metrics(self, *, scope: Optional[str] = None) -> Dict[str, Any]:
        """``GET /v1/metrics?format=json``: the server's metrics document.

        ``scope="local"`` asks a shard for its own document only, skipping
        the cross-shard merge (and hence any dependence on peer health).
        """
        suffix = f"&scope={scope}" if scope else ""
        status, data = self._request("GET", f"/v1/metrics?format=json{suffix}")
        if status != 200:
            raise ServiceError(f"metrics failed ({status}): {self._error_message(data)}")
        return open_envelope(data, "metrics")

    def submit(
        self,
        *,
        figure: Optional[str] = None,
        cases: Optional[Iterable[SimJob]] = None,
        instructions: Optional[int] = None,
        seed: Optional[int] = None,
        full: bool = False,
        policy: Optional[str] = None,
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
        wait: bool = False,
        timeout: float = 600.0,
    ) -> Any:
        """``POST /v1/jobs``: submit a figure campaign or an explicit batch.

        All parameters are keyword-only: ``figure``, ``cases``,
        ``instructions``, ``seed``, ``full``, ``policy`` (cache
        replacement policy for figure campaigns), plus the admission knobs
        ``priority`` (``interactive``/``batch``) and ``tenant`` (which
        overrides the client-level tenant for this call); the two ride the
        envelope, the rest is the :class:`JobRequest` payload.  Returns a
        :class:`SubmitReceipt`; with ``wait=True`` it waits for the job
        (:meth:`wait`, ``timeout`` seconds) and returns the completed status
        document instead.
        """
        # One trace ID covers the whole submission, resubmissions included.
        trace_id = current_trace_id() or new_trace_id()
        request = JobRequest(
            figure=figure,
            cases=tuple(cases or ()),
            instructions=instructions,
            seed=seed,
            full=full,
            policy=policy,
        )
        envelope = wire_envelope(
            "job_request",
            request,
            tenant=tenant if tenant is not None else self.tenant,
            priority=priority,
        )
        deadline = time.monotonic() + timeout
        attempt = 0
        echoed: Dict[str, str] = {}
        while True:
            status, data = self._request(
                "POST", "/v1/jobs", envelope, trace_id=trace_id, echoed=echoed
            )
            if status != 429:
                break
            error = self._overloaded_error(data)
            if not wait:
                raise error
            # wait=True means the caller wants the job's outcome, not the
            # admission verdict: a 429 is resubmitted (honouring the
            # server's Retry-After) until the overall timeout budget runs
            # out, at which point the last rejection surfaces.
            delay = self._resubmit_delay(error.retry_after, attempt)
            if time.monotonic() + delay >= deadline:
                raise error
            attempt += 1
            time.sleep(delay)
        if status not in (200, 202):
            raise ServiceError(f"submission rejected ({status}): {self._error_message(data)}")
        payload = open_envelope(data, "job_accepted")
        receipt = SubmitReceipt(
            job_id=payload["job_id"],
            request_key=payload["request_key"],
            status=payload["status"],
            coalesced=bool(payload["coalesced"]),
            tenant=payload.get("tenant"),
            priority=payload.get("priority"),
            trace_id=echoed.get(TRACE_ID_HEADER),
        )
        if wait:
            # The poll loop gets whatever budget the resubmissions left.
            return self.wait(
                receipt.job_id,
                timeout=max(0.0, deadline - time.monotonic()),
                request_key=receipt.request_key,
            )
        return receipt

    def status(
        self, job_id: str, include_result: bool = True, *, wait: float = 0.0
    ) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``: the job's status document.

        ``wait`` makes it a long poll: the server holds the answer until the
        job completes or fails, or ``wait`` seconds (clamped server-side to
        about 30) pass.  Keep ``wait`` below the client's ``timeout``, which
        bounds every socket read.  Raises :class:`JobNotFoundError` (a
        :class:`ServiceError` subclass) when the server no longer knows the
        id -- which, for a completed job, can simply mean it aged out of the
        bounded history.
        """
        query: Dict[str, float] = {}
        if not include_result:
            query["result"] = 0
        if wait > 0:
            query["wait"] = wait
        suffix = f"?{urlencode(query)}" if query else ""
        status, data = self._request("GET", f"/v1/jobs/{job_id}{suffix}")
        if status == 404:
            raise JobNotFoundError(f"unknown job {job_id!r}")
        if status != 200:
            raise ServiceError(f"status failed ({status}): {self._error_message(data)}")
        return open_envelope(data, "job_status")

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        *,
        request_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Long-poll until the job completes; raises on failure or timeout.

        Each poll is a :meth:`status` long poll that the server answers as
        soon as the job finishes, so there is no sleep between polls.  A
        poll asks for no more than the budget left, and for half the
        client's socket ``timeout`` at most, so the held answer always
        arrives before the socket gives up.

        ``request_key`` (the :attr:`SubmitReceipt.request_key` content
        address) arms the trim-survival fallback: under backlog a job can
        complete and age out of the server's bounded history *between two
        polls*, so a 404 on the job id is retried as
        ``GET /v1/results/{request_key}`` -- if the payload is there the job
        succeeded, and a synthesized completed view is returned (marked
        ``"trimmed": True``) instead of failing work that actually finished.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                view = self.status(job_id, wait=min(remaining, self.timeout / 2))
            except JobNotFoundError:
                if request_key is None:
                    raise
                payload = self.result(request_key)
                if payload is None:
                    raise
                return {
                    "job_id": job_id,
                    "status": "completed",
                    "request_key": request_key,
                    "result": payload,
                    "trimmed": True,
                    "progress": {"executed_jobs": 0, "cache_hits": 0},
                }
            if view["status"] == "completed":
                return view
            if view["status"] == "failed":
                raise ServiceError(f"job {job_id} failed: {view.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out after {timeout:.0f}s waiting for {job_id}")

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """``GET /v1/results/{key}``: one cached simulation, or ``None``."""
        status, data = self._request("GET", f"/v1/results/{key}")
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(f"result lookup failed ({status}): {self._error_message(data)}")
        return open_envelope(data, "cached_result")["result"]

    def run(
        self,
        figure: Optional[str] = None,
        cases: Optional[Iterable[SimJob]] = None,
        instructions: Optional[int] = None,
        seed: Optional[int] = None,
        full: bool = False,
        timeout: float = 600.0,
        *,
        policy: Optional[str] = None,
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit and wait: returns the completed status document."""
        receipt = self.submit(
            figure=figure,
            cases=cases,
            instructions=instructions,
            seed=seed,
            full=full,
            policy=policy,
            priority=priority,
            tenant=tenant,
        )
        return self.wait(
            receipt.job_id, timeout=timeout, request_key=receipt.request_key
        )
