"""End-to-end observability: metrics, tracing, spans and structured logs.

The platform's telemetry layer, threaded through every other package:

* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.MetricsRegistry`,
  per-server (never process-global) counters, gauges and exactly mergeable
  bucketed summaries, with Prometheus text exposition (``GET /v1/metrics``)
  and a JSON form.
* :mod:`repro.obs.tracing` -- request-scoped trace IDs
  (``X-Repro-Trace-Id``), minted by the client, propagated through
  admission, scheduling and dispatch, echoed in every response header and
  log line.
* :mod:`repro.obs.spans` -- span-level profiling generalising the old
  per-phase accounting; worker processes ship their spans and phase deltas
  back to the parent, and ``repro profile`` exports the merged timeline as
  Chrome trace-event JSON (Perfetto-loadable).
* :mod:`repro.obs.logs` -- stdlib-``logging`` JSON/text formatters with
  automatic trace-ID injection (``repro serve --log-level/--log-json``).

See ``docs/USAGE.md``, section "Observability".
"""

from repro.obs.logs import JsonLogFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    Summary,
)
from repro.obs.tracing import (
    TRACE_ID_HEADER,
    current_trace_id,
    ensure_trace_id,
    new_trace_id,
    valid_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "JsonLogFormatter",
    "LogHistogram",
    "MetricsRegistry",
    "Summary",
    "TRACE_ID_HEADER",
    "configure_logging",
    "current_trace_id",
    "ensure_trace_id",
    "get_logger",
    "new_trace_id",
    "valid_trace_id",
]
