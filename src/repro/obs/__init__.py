"""End-to-end observability: metrics, tracing, spans and structured logs.

The platform's telemetry layer, threaded through every other package:

* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.MetricsRegistry`,
  per-server (never process-global) counters, gauges and exactly mergeable
  bucketed summaries, with Prometheus text exposition (``GET /v1/metrics``)
  and a JSON form.
* :mod:`repro.obs.tracing` -- request-scoped trace IDs
  (``X-Repro-Trace-Id``), minted by the client, propagated through
  admission, scheduling and dispatch and on a shard's calls to its peers,
  echoed in every response header and log line.
* :mod:`repro.obs.spans` -- the span log: timed spans recorded only
  while ``repro profile`` arms it (a pool task records only when its
  parent does and ships its spans back), exported as Chrome trace-event
  JSON (Perfetto-loadable).  The per-phase seconds it draws as ``phase``
  spans are accumulated by :mod:`repro.common.phases`.
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
