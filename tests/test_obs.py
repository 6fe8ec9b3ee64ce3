"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the metrics registry (exposition-format golden output parsed by a
tiny line parser, bucketed percentiles against the exact nearest-rank ones),
request-scoped tracing (round trip client -> server -> response), span
profiling (Chrome trace-event export, worker-side spans from a parallel run)
and the structured log formatters.
"""

from __future__ import annotations

import json
import logging
import math
import urllib.error
import urllib.request

import pytest

from repro.common import phases
from repro.common.errors import ConfigurationError
from repro.common.serialize import wire_envelope
from repro.obs import logs as obs_logs
from repro.obs import spans as obs_spans
from repro.obs.metrics import (
    BUCKETS_PER_OCTAVE,
    LogHistogram,
    MetricsRegistry,
    bucket_index,
)
from repro.obs.tracing import (
    TRACE_ID_HEADER,
    current_trace_id,
    ensure_trace_id,
    new_trace_id,
    reset_trace_id,
    set_trace_id,
    valid_trace_id,
)

from test_service import running_service

# ----------------------------------------------------------------------
# LogHistogram percentiles
# ----------------------------------------------------------------------


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * 100) * len(ordered) / 100)) - 1]


def test_histogram_quantile_within_one_bucket_of_exact() -> None:
    values = [float(v) for v in (12, 3, 44, 7, 19, 28, 5, 61, 33, 9, 2, 50)]
    histogram = LogHistogram()
    for value in values:
        histogram.record(value)
    # Nearest rank, resolved to the bucket's upper bound: never below the
    # exact value and at most one bucket width (2**(1/8)) above it.
    for q in (0.10, 0.50, 0.95, 0.99):
        exact = _nearest_rank(values, q)
        assert exact <= histogram.quantile(q) <= exact * 2 ** (1 / BUCKETS_PER_OCTAVE)
        assert bucket_index(histogram.quantile(q)) == bucket_index(exact)
    # Extremes clamp to the exactly tracked min and max.
    assert histogram.quantile(0.0) == 2.0
    assert histogram.quantile(1.0) == 61.0
    assert LogHistogram().quantile(0.5) == 0.0


def test_histogram_bounds_memory_but_counts_everything() -> None:
    histogram = LogHistogram()
    for value in range(1, 100_001):
        histogram.record(value / 1000.0)
    # Five decades of samples land in under 150 buckets; count, sum and the
    # extremes stay exact.
    assert len(histogram.buckets) < 150
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 100_000
    assert snapshot["max"] == 100.0
    assert snapshot["mean"] == pytest.approx(50.0005)
    # A document round trip loses nothing a merge needs.
    restored = LogHistogram.from_sample(histogram.as_sample())
    assert restored.as_sample() == histogram.as_sample()


# ----------------------------------------------------------------------
# Exposition format
# ----------------------------------------------------------------------


def _parse_exposition(text: str):
    """A tiny Prometheus text-format parser: samples, HELP and TYPE lines.

    Returns ``(samples, helps, types)`` where ``samples`` maps
    ``(name, frozenset(labels.items()))`` to the parsed float value.
    """
    samples = {}
    helps = {}
    types = {}
    for line in text.splitlines():
        assert not line.startswith(" "), f"unexpected indented line: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        if not line:
            continue
        body, _, value = line.rpartition(" ")
        labels = {}
        if "{" in body:
            name, _, label_blob = body.partition("{")
            label_blob = label_blob.rstrip("}")
            for pair in label_blob.split('",'):
                key, _, raw = pair.partition('="')
                labels[key] = (
                    raw.rstrip('"')
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        else:
            name = body
        samples[(name, frozenset(labels.items()))] = float(value)
    return samples, helps, types


def test_render_text_golden() -> None:
    registry = MetricsRegistry()
    registry.counter("demo_total", "A demo counter", labelnames=("kind",)).labels(
        "alpha"
    ).inc(3)
    registry.gauge("demo_depth", "A demo gauge").set(7)
    summary = registry.summary("demo_seconds", "A demo summary")
    for value in (1.0, 2.0, 3.0, 4.0):
        summary.record(value)
    text = registry.render_text()
    samples, helps, types = _parse_exposition(text)
    assert types == {
        "demo_depth": "gauge",
        "demo_seconds": "summary",
        "demo_total": "counter",
    }
    assert helps["demo_total"] == "A demo counter"
    assert samples[("demo_total", frozenset({("kind", "alpha")}))] == 3.0
    assert samples[("demo_depth", frozenset())] == 7.0
    assert samples[("demo_seconds_count", frozenset())] == 4.0
    assert samples[("demo_seconds_sum", frozenset())] == 10.0
    # Nearest rank of 1..4 at 0.5 is the 2nd sample, which sits exactly on
    # a bucket bound.
    assert samples[("demo_seconds", frozenset({("quantile", "0.5")}))] == 2.0


def test_label_values_are_escaped() -> None:
    registry = MetricsRegistry()
    registry.counter("odd_total", "odd labels", labelnames=("name",)).labels(
        'quo"te\\back\nline'
    ).inc()
    samples, _, _ = _parse_exposition(registry.render_text())
    assert samples[("odd_total", frozenset({("name", 'quo"te\\back\nline')}))] == 1.0


def test_registry_rejects_conflicting_registration() -> None:
    registry = MetricsRegistry()
    registry.counter("thing_total", "first")
    # Same shape: get-or-create returns the same family.
    again = registry.counter("thing_total", "first")
    assert again is registry.counter("thing_total", "first")
    with pytest.raises(ConfigurationError):
        registry.gauge("thing_total", "first")
    with pytest.raises(ConfigurationError):
        registry.counter("thing_total", "first", labelnames=("other",))


def test_callback_gauge_refreshes_at_render_time() -> None:
    registry = MetricsRegistry()
    box = {"value": 1}
    registry.gauge("live_depth", "refreshed").set_function(lambda: box["value"])
    samples, _, _ = _parse_exposition(registry.render_text())
    assert samples[("live_depth", frozenset())] == 1.0
    box["value"] = 9
    samples, _, _ = _parse_exposition(registry.render_text())
    assert samples[("live_depth", frozenset())] == 9.0


def test_as_document_mirrors_families() -> None:
    registry = MetricsRegistry()
    registry.counter("doc_total", "documented").inc(2)
    document = registry.as_document()
    by_name = {entry["name"]: entry for entry in document["metrics"]}
    assert by_name["doc_total"]["type"] == "counter"
    assert by_name["doc_total"]["samples"][0]["value"] == 2


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_trace_id_validation_and_minting() -> None:
    assert valid_trace_id("abc123")
    assert valid_trace_id("a-b.c_d")
    assert not valid_trace_id("")
    assert not valid_trace_id("-leading-dash")
    assert not valid_trace_id("x" * 200)
    assert not valid_trace_id("white space")
    minted = new_trace_id()
    assert valid_trace_id(minted)
    assert ensure_trace_id("good-id") == "good-id"
    assert ensure_trace_id("bad id") != "bad id"


def test_trace_context_set_and_reset() -> None:
    assert current_trace_id() is None
    token = set_trace_id("ctx-1")
    try:
        assert current_trace_id() == "ctx-1"
    finally:
        reset_trace_id(token)
    assert current_trace_id() is None


def test_trace_id_round_trip_through_service(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (service, client):
        receipt = client.submit(figure="fig7", instructions=2000)
        # The receipt carries the client-minted ID, echoed by the server.
        assert receipt.trace_id is not None
        assert valid_trace_id(receipt.trace_id)
        view = client.wait(receipt.job_id)
        assert view["trace_id"] == receipt.trace_id
        # A raw request with an explicit header gets it echoed back in the
        # response header.
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/healthz",
            headers={TRACE_ID_HEADER: "my-trace-42"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers[TRACE_ID_HEADER] == "my-trace-42"
        # An invalid incoming ID is replaced with a freshly minted one.
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/healthz",
            headers={TRACE_ID_HEADER: "bad id with spaces"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            echoed = response.headers[TRACE_ID_HEADER]
        assert echoed and echoed != "bad id with spaces"
        assert valid_trace_id(echoed)


def test_trace_id_travels_only_in_the_header(tmp_path) -> None:
    """Response envelopes name no trace ID, their header does, and a
    receipt names the ID the server answered with, even when the server
    replaced an invalid one."""
    with running_service(tmp_path / "cache") as (service, client):
        service.manager._execute = lambda state: {"stubbed": True}
        host, port = service.address
        for method, path, body in (
            ("POST", "/v1/jobs", wire_envelope("job_request", {"figure": "sec52"})),
            ("GET", "/v1/jobs/job-999999", None),
        ):
            request = urllib.request.Request(
                f"http://{host}:{port}{path}",
                data=None if body is None else json.dumps(body).encode(),
                method=method,
                headers={TRACE_ID_HEADER: "probe-7", "Content-Type": "application/json"},
            )
            try:
                response = urllib.request.urlopen(request, timeout=10)
            except urllib.error.HTTPError as error:
                response = error
            with response:
                assert response.headers[TRACE_ID_HEADER] == "probe-7"
                envelope = json.loads(response.read())
            assert "trace_id" not in envelope, (path, envelope)
        token = set_trace_id("not a valid id")
        try:
            receipt = client.submit(figure="sec52", seed=3)
        finally:
            reset_trace_id(token)
        assert valid_trace_id(receipt.trace_id)
        view = client.status(receipt.job_id, include_result=False)
        assert view["trace_id"] == receipt.trace_id


# ----------------------------------------------------------------------
# Metrics endpoint
# ----------------------------------------------------------------------


def test_metrics_endpoint_text_and_json(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (service, client):
        client.submit(figure="fig7", instructions=2000, wait=True)
        host, port = service.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        samples, _, types = _parse_exposition(text)
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_tenant_queue_wait_seconds"] == "summary"
        # The flood of requests this test itself made is visible.
        assert (
            sum(
                value
                for (name, _), value in samples.items()
                if name == "repro_http_requests_total"
            )
            > 0
        )
        dispatched = samples[
            (
                "repro_tenant_jobs_total",
                frozenset({("tenant", "default"), ("event", "dispatched")}),
            )
        ]
        assert dispatched >= 1
        assert ("repro_queue_depth", frozenset()) in samples
        assert ("repro_uptime_seconds", frozenset()) in samples
        # Cache metrics ride the same registry.
        assert any(name == "repro_cache_requests_total" for name, _ in samples)
        # The JSON document exposes the same families via the client SDK.
        document = client.metrics()
        names = {entry["name"] for entry in document["metrics"]}
        assert "repro_http_requests_total" in names
        assert "repro_tenant_jobs_total" in names


def test_stats_document_is_versioned(tmp_path) -> None:
    with running_service(tmp_path / "cache") as (_service, client):
        stats = client.stats()
        assert stats["schema_version"] == 2
        assert isinstance(stats["uptime_seconds"], float)


# ----------------------------------------------------------------------
# Spans and Chrome trace export
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_spans():
    obs_spans.reset()
    phases.reset()
    obs_spans.set_recording(False)
    yield
    obs_spans.reset()
    phases.reset()
    obs_spans.set_recording(False)


def test_spans_are_noops_until_armed() -> None:
    with obs_spans.span("ignored"):
        pass
    assert obs_spans.snapshot() == []
    obs_spans.start_recording()
    with obs_spans.span("kept", category="test", args={"k": 1}):
        pass
    obs_spans.stop_recording()
    (entry,) = obs_spans.snapshot()
    assert entry["name"] == "kept"
    assert entry["category"] == "test"
    assert entry["args"] == {"k": 1}
    assert entry["duration"] >= 0.0


def test_phase_totals_accumulate_regardless_of_recording() -> None:
    phases.add("drive", 1.5)
    phases.add("drive", 0.5)
    assert phases.snapshot() == {"drive": 2.0}
    assert obs_spans.snapshot() == []  # not armed: no span log entries


def test_merge_worker_folds_phases_and_spans() -> None:
    obs_spans.start_recording()
    phases.add("build", 1.0)
    phases.merge({"build": 2.0, "drive": 3.0})
    obs_spans.merge(
        [
            {
                "name": "build",
                "category": "phase",
                "start": 10.0,
                "duration": 2.0,
                "pid": 4242,
                "tid": 1,
                "args": None,
            }
        ]
    )
    obs_spans.stop_recording()
    assert phases.snapshot() == {"build": 3.0, "drive": 3.0}
    assert any(entry["pid"] == 4242 for entry in obs_spans.snapshot())
    # The local report logged its own phase span while armed.
    assert [entry["category"] for entry in obs_spans.snapshot()] == ["phase", "phase"]


def test_chrome_trace_export_shape() -> None:
    obs_spans.start_recording()
    with obs_spans.span("outer", category="profile"):
        with obs_spans.span("inner"):
            pass
    obs_spans.stop_recording()
    document = obs_spans.to_chrome_trace(
        obs_spans.snapshot(), metadata={"figure": "fig7"}
    )
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"] == {"figure": "fig7"}
    events = document["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    metadata_events = [event for event in events if event["ph"] == "M"]
    assert len(complete) == 2
    assert len(metadata_events) == 1
    for event in complete:
        assert {"name", "ph", "ts", "dur", "pid", "tid", "cat"} <= set(event)
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    # Timestamps are normalised: the earliest event starts at zero.
    assert min(event["ts"] for event in complete) == 0


def test_parallel_run_ships_worker_spans(monkeypatch) -> None:
    import repro.exp.runner as runner_mod

    monkeypatch.setattr(runner_mod, "available_cpus", lambda: 2)
    from repro.exp.runner import ExperimentRunner, SimJob
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_int_suite

    machine = fmc_hash()
    members = list(quick_int_suite())[:2]
    jobs = [
        SimJob(machine, workload, 2000, 7 + index)
        for index, workload in enumerate(members)
    ]
    runner = ExperimentRunner(jobs=2, cache=None)
    obs_spans.start_recording()
    try:
        results = runner.run_batch(jobs)
    finally:
        obs_spans.stop_recording()
        runner.close()
    assert len(results) == 2
    import os

    pids = {entry["pid"] for entry in obs_spans.snapshot()}
    assert pids - {os.getpid()}, "expected spans shipped back from pool workers"
    # Worker phase seconds were merged into the parent's totals too.
    assert phases.snapshot().get("drive", 0.0) > 0.0


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------


def _make_record(message: str, **extra):
    record = logging.LogRecord(
        name="repro.test", level=logging.INFO, pathname=__file__, lineno=1,
        msg=message, args=(), exc_info=None,
    )
    for key, value in extra.items():
        setattr(record, key, value)
    return record


def test_json_formatter_injects_trace_id() -> None:
    formatter = obs_logs.JsonLogFormatter()
    token = set_trace_id("log-trace-7")
    try:
        line = formatter.format(_make_record("hello %s" % "world", tenant="alpha"))
    finally:
        reset_trace_id(token)
    document = json.loads(line)
    assert document["message"] == "hello world"
    assert document["trace_id"] == "log-trace-7"
    assert document["tenant"] == "alpha"
    assert document["level"] == "info"
    assert document["logger"] == "repro.test"


def test_text_formatter_appends_trace_id() -> None:
    formatter = obs_logs.TextLogFormatter()
    token = set_trace_id("txt-1")
    try:
        line = formatter.format(_make_record("plain"))
    finally:
        reset_trace_id(token)
    assert "plain" in line
    assert "trace_id=txt-1" in line


def test_configure_logging_is_idempotent() -> None:
    logger = logging.getLogger("repro")
    before = list(logger.handlers)
    obs_logs.configure_logging("debug")
    obs_logs.configure_logging("warning")
    ours = [h for h in logger.handlers if getattr(h, "_repro_obs", False)]
    assert len(ours) == 1
    assert logger.level == logging.WARNING
    with pytest.raises(ValueError):
        obs_logs.configure_logging("chatty")
    # Restore whatever handlers the session had.
    for handler in ours:
        logger.removeHandler(handler)
    for handler in before:
        if handler not in logger.handlers:
            logger.addHandler(handler)


# ----------------------------------------------------------------------
# No process-global registry
# ----------------------------------------------------------------------


def test_caches_without_a_registry_count_privately(tmp_path) -> None:
    """A cache built without a registry (the CLI's) gets its own: two such
    caches never share counters."""
    from repro.exp.cache import ResultCache

    first, second = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    assert first.get("0" * 64) is None
    assert first._misses.value == 1
    assert second._misses.value == 0
