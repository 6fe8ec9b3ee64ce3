"""Minimal HTTP/1.1 framing over asyncio streams.

The service deliberately avoids web frameworks: one request per connection
(``Connection: close``), JSON bodies, and only what the four ``/v1``
endpoints need -- a request line, headers, an optional ``Content-Length``
body.  :func:`read_request` parses an incoming request from a stream reader;
:func:`json_response` renders a complete response (status line + headers +
JSON body) as bytes ready to write.

Malformed input raises :class:`ProtocolError`, which carries the HTTP status
the server should answer with; the connection handler translates it into an
error envelope instead of dropping the connection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bound on accepted request bodies; large batches should be split.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Bounds on the header section, so a client streaming header lines cannot
#: grow one handler's memory without limit before the read timeout fires.
MAX_HEADER_COUNT = 100
MAX_HEADER_BYTES = 64 * 1024

#: Reason phrases for the statuses the service emits.
REASONS: Dict[int, str] = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed or unacceptable HTTP request (maps to a 4xx response)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HTTPRequest:
    """One parsed request: method, decoded path, query, headers and body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """Parse the body as JSON, raising a 400 :class:`ProtocolError` if bad."""
        if not self.body:
            raise ProtocolError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(400, f"request body is not valid JSON: {error}") from None


async def read_request(reader) -> Optional[HTTPRequest]:
    """Read one HTTP request from ``reader``; ``None`` if the peer hung up.

    Raises :class:`ProtocolError` on malformed framing (bad request line,
    bad ``Content-Length``, oversized or truncated body).
    """
    try:
        request_line = await reader.readline()
    except ValueError:  # line exceeded the stream reader's limit
        raise ProtocolError(400, "request line too long") from None
    if not request_line or not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise ProtocolError(400, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if len(headers) >= MAX_HEADER_COUNT or header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError(400, "too many request headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(400, "malformed Content-Length") from None
    if length < 0:
        raise ProtocolError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception:  # IncompleteReadError, connection reset
            raise ProtocolError(400, "request body truncated") from None
    split = urlsplit(target)
    return HTTPRequest(
        method=method,
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def _render_response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int, payload: Any, extra_headers: Sequence[Tuple[str, str]] = ()
) -> bytes:
    """Render a complete JSON response (headers + body) as bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _render_response(status, body, "application/json", extra_headers)


def text_response(
    status: int, text: str, extra_headers: Sequence[Tuple[str, str]] = ()
) -> bytes:
    """Render a plain-text response (the Prometheus exposition content type)."""
    return _render_response(
        status,
        text.encode("utf-8"),
        "text/plain; version=0.0.4; charset=utf-8",
        extra_headers,
    )
