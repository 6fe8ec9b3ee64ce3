"""Exception hierarchy for the ELSQ reproduction library.

Every exception intentionally raised by the library derives from
:class:`ReproError` so that callers embedding the simulator can catch a single
base class.  More specific subclasses communicate *which* subsystem rejected
the request:

* :class:`ConfigurationError` -- an invalid or inconsistent configuration
  value (for example a cache whose size is not a multiple of its line size).
* :class:`WorkloadError` -- a workload generator was asked for something it
  cannot produce (negative instruction counts, probabilities outside [0, 1]).
* :class:`TraceError` -- a malformed instruction trace (bad operands, memory
  operation without an address, unknown serialised record).
* :class:`SimulationError` -- an internal inconsistency detected while a
  simulation was running (these indicate bugs or mis-use of the low level
  structures rather than bad user input).
* :class:`ServiceError` -- the simulation service (:mod:`repro.service`)
  rejected or failed a request; :class:`ServiceOverloadedError` is the
  admission-control subcase (HTTP 429, a queue or tenant quota is full)
  and :class:`ServiceUnavailableError` a status poll's 503.

The service's **error taxonomy** also lives here (shared by the server and
the client SDK, which must agree on it): every error body carries a stable
machine-readable :class:`ErrorCode` so callers branch on ``code`` instead of
string-matching messages.
"""

from __future__ import annotations

import enum
from typing import Optional


class ErrorCode(str, enum.Enum):
    """Machine-readable error codes carried in every service error body.

    The code is the contract: messages are free to change wording, but the
    code a given failure maps to is stable.  ``ServiceClient`` raises
    :class:`ServiceOverloadedError` for the two admission codes,
    :class:`ServiceUnavailableError` for a status poll's 503 and plain
    :class:`ServiceError` otherwise.
    """

    #: Malformed request: bad JSON, bad envelope, invalid parameters.
    BAD_REQUEST = "bad_request"
    #: The tenant requires an auth token and none (or a wrong one) was sent.
    UNAUTHORIZED = "unauthorized"
    #: Unknown endpoint, job id or cache key.
    NOT_FOUND = "not_found"
    #: Known endpoint, wrong HTTP method.
    METHOD_NOT_ALLOWED = "method_not_allowed"
    #: Global admission control: the server-wide queue is full.
    OVERLOADED = "overloaded"
    #: Per-tenant admission control: this tenant's quota is exhausted
    #: (other tenants may still be admitted).
    TENANT_QUOTA_EXCEEDED = "tenant_quota_exceeded"
    #: The job exceeded its configured wall-clock execution timeout.
    JOB_TIMEOUT = "job_timeout"
    #: Every retry of a retryable execution failure (worker crash) failed.
    JOB_RETRIES_EXHAUSTED = "job_retries_exhausted"
    #: The server is draining for shutdown and accepts no new submissions.
    DRAINING = "draining"
    #: The shard that owns the polled job is suspect or did not answer;
    #: the job is not unknown, so poll again after ``Retry-After``.
    PEER_UNAVAILABLE = "peer_unavailable"
    #: The server failed while handling the request.
    INTERNAL = "internal"


#: The HTTP status each error code is served with.
HTTP_STATUS_FOR_CODE = {
    ErrorCode.BAD_REQUEST: 400,
    ErrorCode.UNAUTHORIZED: 401,
    ErrorCode.NOT_FOUND: 404,
    ErrorCode.METHOD_NOT_ALLOWED: 405,
    ErrorCode.OVERLOADED: 429,
    ErrorCode.TENANT_QUOTA_EXCEEDED: 429,
    ErrorCode.JOB_TIMEOUT: 500,
    ErrorCode.JOB_RETRIES_EXHAUSTED: 500,
    ErrorCode.DRAINING: 503,
    ErrorCode.PEER_UNAVAILABLE: 503,
    ErrorCode.INTERNAL: 500,
}


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid or internally inconsistent configuration value."""


class WorkloadError(ReproError, ValueError):
    """A workload generator received parameters it cannot honour."""


class TraceError(ReproError, ValueError):
    """An instruction trace is malformed or internally inconsistent."""


class SimulationError(ReproError, RuntimeError):
    """An invariant of the timing model or a hardware structure was violated."""


class ServiceError(ReproError, RuntimeError):
    """The simulation service rejected or failed a request."""


class LoadDriverError(ReproError, RuntimeError):
    """The load harness's client fleet failed outside the measurement contract.

    Raised when a client *process* dies without reporting its samples (a
    non-zero exit code): the stage's numbers would silently undercount the
    offered load, so the driver fails loudly instead.  Per-request failures
    under saturation are not errors -- they are measurements, recorded as
    ``ok=False`` samples.
    """


class WorkerCrashError(ServiceError):
    """A job's execution substrate died under it (worker process killed,
    pool broken) rather than the simulation itself failing.

    This is the **retryable** failure class: the job's inputs are fine, the
    machinery running it was lost, so the supervisor re-runs the job on
    freshly spawned children with backoff.  Deterministic simulation errors
    (:class:`SimulationError`, :class:`ConfigurationError`, ...) are *not*
    retryable -- re-running identical inputs reproduces them, so they fail
    fast instead of burning retries.
    """


class JobTimeoutError(ServiceError):
    """A job exceeded the server's per-job wall-clock timeout.

    Carries :data:`ErrorCode.JOB_TIMEOUT`; not retried (a second attempt
    would very likely time out again and double the damage).
    """

    code = ErrorCode.JOB_TIMEOUT


class JobRetriesExhaustedError(ServiceError):
    """A retryable failure survived every allowed retry.

    Carries :data:`ErrorCode.JOB_RETRIES_EXHAUSTED` and chains the last
    underlying failure as ``__cause__``.
    """

    code = ErrorCode.JOB_RETRIES_EXHAUSTED


class JobNotFoundError(ServiceError):
    """A job id the server no longer (or never) knew about (HTTP 404).

    Distinct from plain :class:`ServiceError` so pollers can tell "the job
    was trimmed from the bounded history" apart from transport failures and
    fall back to the result cache (:meth:`ServiceClient.wait` does exactly
    this with the receipt's request key).
    """


class ServiceUnavailableError(ServiceError):
    """A status poll answered HTTP 503: the shard owning the job is suspect
    or not answering (:data:`ErrorCode.PEER_UNAVAILABLE`), or the polled
    server is stopping (:data:`ErrorCode.DRAINING`).

    The job itself is not unknown, so :meth:`ServiceClient.wait` polls again
    after ``retry_after`` seconds (the ``Retry-After`` hint, ``None`` when
    the server sent none) while its budget lasts.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a submission (queue or tenant quota full).

    Carries the structured fields the wire error body exposes, so callers
    can back off without parsing the message:

    * ``code`` -- :data:`ErrorCode.OVERLOADED` (server-wide queue full) or
      :data:`ErrorCode.TENANT_QUOTA_EXCEEDED` (this tenant's quota, other
      tenants unaffected);
    * ``tenant`` -- the tenant whose submission was rejected (``None`` when
      the rejection was global);
    * ``retry_after`` -- the server's backoff hint in seconds (the
      ``Retry-After`` header), ``None`` when the server sent no hint.
    """

    def __init__(
        self,
        message: str,
        *,
        code: ErrorCode = ErrorCode.OVERLOADED,
        tenant: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = ErrorCode(code)
        self.tenant = tenant
        self.retry_after = retry_after
