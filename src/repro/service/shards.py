"""Multi-process scale-out: the shard supervisor and cross-shard merging.

``repro serve --shards N`` forks N full server processes ("shards") over the
same shared :class:`~repro.exp.cache.ResultCache` directory.  The port
layout is fixed and platform-independent:

* every shard binds its **own well-known port** ``base + 1 + index`` (the
  peer address used for aggregation, status-poll proxying, and the load
  driver's round-robin fallback), and
* the **public base port** is bound by *all* shards with ``SO_REUSEPORT``
  where the platform has it (the kernel load-balances accepted connections
  across the shard processes), otherwise by shard 0 alone.

Shards do not share memory: each runs its own :class:`JobManager`, metrics
registry and scheduler, and only the on-disk result cache is common.  The
cross-shard views (``/v1/stats``, ``/v1/metrics``) are therefore assembled
at request time -- the serving shard fetches its peers' *local* metrics
documents over HTTP (``?scope=local`` suppresses recursion) and merges them
with :func:`merge_metrics_documents`, one merge behind both endpoints.  The
functions here are free of any I/O, so the merge semantics are
unit-testable without processes:

* counters, queue depths and per-tenant job/sim totals **sum**;
* uptime and the constant ``repro_build_info`` gauge take the **max**;
* latency summaries add their histogram buckets, which is exactly the
  histogram of every shard's samples together: a merged p99 is the p99 of
  the union, to within one bucket.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.faults import get_injector
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import stats_document
from repro.service.tenancy import TenancyConfig

log = get_logger("service.shards")

#: How long one peer fetch may take before the aggregating shard gives up
#: on that peer and serves a partial merge (``shards.responding`` says so).
PEER_FETCH_TIMEOUT = 5.0

#: Gauges whose cross-shard aggregate is the max, not the sum: uptime is a
#: property of the group (oldest shard), and ``repro_build_info`` is the
#: constant 1 regardless of how many shards report it.
_GAUGES_MERGED_BY_MAX = frozenset({"repro_uptime_seconds", "repro_build_info"})


# -- the port layout ----------------------------------------------------


def shard_port(base_port: int, index: int) -> int:
    """The well-known per-shard port: ``base + 1 + index``."""
    return base_port + 1 + index


def shard_ports(base_port: int, count: int) -> List[int]:
    """Every shard's well-known port, in shard order."""
    return [shard_port(base_port, index) for index in range(count)]


def peer_host(host: str) -> str:
    """The address peers are dialled on (wildcard binds dial loopback)."""
    if host in ("", "0.0.0.0", "::"):
        return "127.0.0.1"
    return host


# -- the peer fetch -----------------------------------------------------


async def fetch_json(
    host: str,
    port: int,
    path: str,
    timeout: float = PEER_FETCH_TIMEOUT,
    headers: Sequence[Tuple[str, str]] = (),
) -> Tuple[int, Any]:
    """One ``GET`` against a peer shard; returns ``(status, parsed body)``.

    The service speaks one-request-per-connection HTTP (``Connection:
    close``), so the whole response is simply read to EOF.  ``headers``
    are extra request header lines; the server's one peer-call helper
    (``ReproService._peer_get``) sends the caller's trace ID there.  Raises
    ``OSError`` / ``asyncio.TimeoutError`` on connection trouble and
    ``ValueError`` on an unparseable response -- callers treat any of those
    as "peer not responding" and merge without it.

    This is also the chaos harness's peer-level injection point: an active
    ``drop_peer`` fault fails the call before dialling (exactly what a dead
    peer looks like to the caller) and ``delay_peer`` stalls it first
    (exercising the fetch timeout and the suspect-peer accounting).
    """
    injector = get_injector()
    if injector is not None:
        delay = injector.peer_delay()
        if delay > 0:
            await asyncio.sleep(delay)
        if injector.should("drop_peer"):
            raise OSError(f"fault injection: peer call to {host}:{port} dropped")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        lines = [f"GET {path} HTTP/1.1", f"Host: {host}:{port}", "Connection: close"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_parts = head.split(b"\r\n", 1)[0].split()
    if len(status_parts) < 2 or not status_parts[0].startswith(b"HTTP/"):
        raise ValueError(f"malformed response from {host}:{port}")
    status = int(status_parts[1])
    payload = json.loads(body.decode("utf-8")) if body else None
    return status, payload


# -- merging ------------------------------------------------------------


def merge_metrics_documents(documents: Sequence[Dict[str, Any]]) -> MetricsRegistry:
    """Merge per-shard ``/v1/metrics?format=json`` documents into a registry.

    Counters and summaries add (summaries bucket by bucket, so merged
    percentiles are those of the union of samples); gauges add too (queue
    depth, in-flight and queue-limit aggregates are the meaningful group
    totals) except the few in :data:`_GAUGES_MERGED_BY_MAX`.  Samples merge
    per label set, so per-endpoint and per-tenant series stay distinct.  The
    result renders and reads exactly like a live server's registry.
    """
    merged = MetricsRegistry()
    for document in documents:
        merged.merge_document(document, max_gauges=_GAUGES_MERGED_BY_MAX)
    return merged


def group_stats_document(
    documents: Sequence[Tuple[int, Dict[str, Any]]],
    tenancy: TenancyConfig,
    expected: int,
) -> Dict[str, Any]:
    """The group-wide ``/v1/stats`` view from ``(shard index, metrics
    document)`` pairs.

    The body is :func:`~repro.service.jobs.stats_document` over the merged
    registry, so work shares are recomputed over the summed dispatch counts
    and latency percentiles are those of the union.  ``expected`` is the
    configured shard count; ``shards.responding`` < ``shards.count`` tells a
    scraper the merge is partial (a peer was down or slow).
    """
    merged = stats_document(
        merge_metrics_documents([document for _, document in documents]), tenancy
    )
    per_shard = []
    for index, document in documents:
        own = stats_document(merge_metrics_documents([document]), tenancy)
        per_shard.append(
            {
                "shard": index,
                "uptime_seconds": own["uptime_seconds"],
                "queue_depth": own["queue"]["depth"],
                "submitted": own["totals"]["submitted"],
                "completed": own["totals"]["completed"],
            }
        )
    merged["shards"] = {
        "count": expected,
        "responding": len(documents),
        "per_shard": per_shard,
    }
    return merged


# -- the supervisor -----------------------------------------------------


def _shard_main(config: Any, log_level: str, log_json: bool) -> None:
    """Entry point of one shard process (module-level for spawn pickling).

    A shard that cannot serve (its port is taken, say) logs one line and
    exits 1, and the supervisor reports it; no traceback.
    """
    from repro.obs.logs import configure_logging
    from repro.service.server import serve

    configure_logging(log_level, json_format=log_json)
    try:
        serve(config)
    except ReproError as error:
        log.error("shard %d cannot serve: %s", config.shard_index, error)
        raise SystemExit(1) from None


def serve_sharded(config: Any, log_level: str = "info", log_json: bool = False) -> int:
    """Fork ``config.shard_count`` shard processes and supervise them.

    Blocks until every shard exits; Ctrl-C reaches the whole process group,
    and any shard still alive after the supervisor unblocks is terminated.
    Spawn (not fork) start method: shards create their own event loops and
    thread pools, and a forked child of a threaded parent can inherit a
    held lock.  Returns the exit status: 1 when a shard failed and the
    group was not stopped by SIGTERM or Ctrl-C, else 0.
    """
    if config.shard_count <= 1:
        from repro.service.server import serve

        serve(config)
        return 0
    if config.port == 0:
        raise ConfigurationError(
            "sharded serving needs a fixed --port: the shard port layout is "
            "base+1+index, which an ephemeral port 0 cannot anchor"
        )
    # SIGTERM's default disposition would kill the supervisor without
    # running the finally block below, orphaning every shard.  Translate
    # it into KeyboardInterrupt so terminate-the-children always runs.
    def _on_sigterm(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)
    context = multiprocessing.get_context("spawn")
    processes = []
    for index in range(config.shard_count):
        process = context.Process(
            target=_shard_main,
            args=(replace(config, shard_index=index), log_level, log_json),
            name=f"repro-shard-{index}",
        )
        process.start()
        processes.append(process)
    log.info(
        "supervising %d shards: public port %d, shard ports %s",
        config.shard_count,
        config.port,
        shard_ports(config.port, config.shard_count),
    )
    stopped = False
    try:
        for process in processes:
            process.join()
    except KeyboardInterrupt:
        stopped = True
        log.info("shard supervisor interrupted; stopping shards")
    finally:
        # terminate() is SIGTERM: each shard runs its graceful drain
        # (bounded by drain_timeout) and flushes its journal, so give them
        # that long before escalating to SIGKILL.
        for process in processes:
            if process.is_alive():
                process.terminate()
        grace = float(getattr(config, "drain_timeout", 10.0)) + 5.0
        for process in processes:
            process.join(timeout=grace)
        for process in processes:
            if process.is_alive():  # pragma: no cover - drain wedged
                process.kill()
                process.join(timeout=5.0)
    failed = [f"{process.name} ({process.exitcode})" for process in processes if process.exitcode]
    if failed and not stopped:
        log.error("shards failed with exit status: %s", ", ".join(failed))
        return 1
    return 0
