"""Epoch-based measurement: warmup discard, throughput and percentiles.

A load run is divided into fixed-length **epochs**; the first
``warmup_epochs`` are recorded but excluded from the aggregate -- they are
dominated by process startup, cold caches and the first connections, and
folding them in understates steady-state throughput while inflating tail
latency.  The aggregate ("measured") window reports, per endpoint kind,
throughput in requests/second and p50/p95/p99/max latency in milliseconds,
plus per-tenant request shares for the tenant-mix mode.

Percentiles use the inclusive linear-interpolation estimator over the raw
client-side samples -- identical to ``statistics.quantiles(values,
method="inclusive")``.  The server's own summaries are bucketed
(:class:`repro.obs.metrics.LogHistogram`), so they agree with these to
within one bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Sample:
    """One completed request, as the driver observed it."""

    #: Request kind (``submit`` / ``health`` / ``stats``).
    kind: str
    #: Tenant the request was charged to (``None`` = server default).
    tenant: Optional[str]
    #: Seconds from the issuing client's run start to the request's issue.
    start: float
    #: End-to-end seconds (for ``submit``: until the job completed).
    latency: float
    #: Whether the request succeeded (admission rejections and transport
    #: failures are recorded, not dropped -- errors are a result).
    ok: bool


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive linearly-interpolated quantile (0.0 for an empty input).

    Matches ``statistics.quantiles(values, n=100, method="inclusive")`` at
    the corresponding cut points.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def _latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """The latency block of an endpoint entry, in milliseconds."""
    if not latencies:
        return {"mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "mean_ms": sum(latencies) / len(latencies) * 1e3,
        "p50_ms": quantile(latencies, 0.50) * 1e3,
        "p95_ms": quantile(latencies, 0.95) * 1e3,
        "p99_ms": quantile(latencies, 0.99) * 1e3,
        "max_ms": max(latencies) * 1e3,
    }


class EpochSeries:
    """Assigns samples to epochs and renders the measurement document.

    Epoch membership is by *issue* time relative to the issuing client's
    own start (clients of a fleet start within milliseconds of each other,
    so their warmup windows align to well under an epoch).  Samples issued
    past the configured window (stragglers from a client that fell behind)
    are counted in ``dropped_samples`` rather than skewing the last epoch.
    """

    def __init__(
        self, epoch_seconds: float, epochs: int, warmup_epochs: int = 1
    ) -> None:
        if epoch_seconds <= 0:
            raise ConfigurationError("epoch length must be > 0 seconds")
        if epochs <= 0:
            raise ConfigurationError("a run needs at least one epoch")
        if not 0 <= warmup_epochs < epochs:
            raise ConfigurationError(
                f"warmup epochs must be in [0, {epochs}), got {warmup_epochs}"
            )
        self.epoch_seconds = epoch_seconds
        self.epochs = epochs
        self.warmup_epochs = warmup_epochs
        self._buckets: List[List[Sample]] = [[] for _ in range(epochs)]
        self.dropped_samples = 0

    def add(self, sample: Sample) -> None:
        index = int(sample.start // self.epoch_seconds)
        if 0 <= index < self.epochs:
            self._buckets[index].append(sample)
        else:
            self.dropped_samples += 1

    def extend(self, samples: Sequence[Sample]) -> None:
        for sample in samples:
            self.add(sample)

    def measured_samples(self) -> List[Sample]:
        """Every sample in the post-warmup window."""
        samples: List[Sample] = []
        for bucket in self._buckets[self.warmup_epochs :]:
            samples.extend(bucket)
        return samples

    def document(self) -> Dict[str, Any]:
        """The full measurement document (the artifact's ``series`` block)."""
        per_epoch = [
            self._epoch_entry(index, bucket)
            for index, bucket in enumerate(self._buckets)
        ]
        measured = self.measured_samples()
        duration = (self.epochs - self.warmup_epochs) * self.epoch_seconds
        return {
            "epoch_seconds": self.epoch_seconds,
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "dropped_samples": self.dropped_samples,
            "per_epoch": per_epoch,
            "measured": self._window_entry(measured, duration),
        }

    def _epoch_entry(self, index: int, bucket: List[Sample]) -> Dict[str, Any]:
        entry = self._window_entry(bucket, self.epoch_seconds)
        entry["epoch"] = index
        entry["warmup"] = index < self.warmup_epochs
        return entry

    def _window_entry(
        self, samples: Sequence[Sample], duration: float
    ) -> Dict[str, Any]:
        """Throughput, errors, per-endpoint latency and tenant shares."""
        by_kind: Dict[str, List[Sample]] = {}
        by_tenant: Dict[str, int] = {}
        errors = 0
        for sample in samples:
            by_kind.setdefault(sample.kind, []).append(sample)
            if not sample.ok:
                errors += 1
            if sample.kind == "submit" and sample.ok:
                tenant = sample.tenant if sample.tenant is not None else "default"
                by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        endpoints = {}
        for kind in sorted(by_kind):
            group = by_kind[kind]
            ok_latencies = [s.latency for s in group if s.ok]
            endpoints[kind] = {
                "requests": len(group),
                "errors": sum(1 for s in group if not s.ok),
                "throughput_rps": len(group) / duration if duration else 0.0,
                **_latency_summary(ok_latencies),
            }
        submit_total = sum(by_tenant.values())
        tenants = {
            tenant: {
                "completed": count,
                "share": count / submit_total if submit_total else 0.0,
            }
            for tenant, count in sorted(by_tenant.items())
        }
        return {
            "duration_seconds": duration,
            "requests": len(samples),
            "errors": errors,
            "throughput_rps": len(samples) / duration if duration else 0.0,
            "endpoints": endpoints,
            "tenants": tenants,
        }
