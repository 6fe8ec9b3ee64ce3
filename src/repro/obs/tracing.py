"""Request-scoped trace IDs: minting, validation and context propagation.

A trace ID is a short opaque token minted once per logical request (by
:class:`~repro.service.client.ServiceClient` on submission, or by the server
for clients that send none) and carried everywhere that request goes: the
``X-Repro-Trace-Id`` HTTP header (the only place it travels on the wire,
both ways), the job state, every structured log line and every response.
Correlating a client-side failure with the server-side log lines that
produced it is then a single grep.

The *current* trace ID rides a :mod:`contextvars` context variable, so
concurrently handled requests on one event loop never see each other's IDs,
and log formatters can pick the ID up without threading it through every
call signature.
"""

from __future__ import annotations

import contextvars
import re
import uuid
from typing import Optional

#: The header carrying the trace ID in both directions.
TRACE_ID_HEADER = "X-Repro-Trace-Id"

#: Accepted trace-ID shape.  Anything else (too long, control characters,
#: header-splitting attempts) is discarded and replaced by a fresh ID --
#: the value is echoed into response headers and logs, so it must be tame.
_TRACE_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._\-]{0,127}\Z")

_CURRENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """Mint a fresh trace ID (a 32-hex-digit UUID4)."""
    return uuid.uuid4().hex


def valid_trace_id(candidate: object) -> bool:
    """Whether ``candidate`` is a well-formed trace ID."""
    return isinstance(candidate, str) and _TRACE_ID_PATTERN.match(candidate) is not None


def ensure_trace_id(candidate: object = None) -> str:
    """Return ``candidate`` when it is a valid trace ID, else mint a new one."""
    if valid_trace_id(candidate):
        return candidate  # type: ignore[return-value]
    return new_trace_id()


def current_trace_id() -> Optional[str]:
    """The trace ID bound to the current context, or ``None``."""
    return _CURRENT.get()


def set_trace_id(trace_id: Optional[str]) -> "contextvars.Token":
    """Bind ``trace_id`` to the current context; returns the reset token."""
    return _CURRENT.set(trace_id)


def reset_trace_id(token: "contextvars.Token") -> None:
    """Restore the context to its state before the matching :func:`set_trace_id`."""
    _CURRENT.reset(token)
