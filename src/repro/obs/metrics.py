"""The metrics registry: counters, gauges and bucketed summaries.

Every layer of the stack reports into one :class:`MetricsRegistry` -- the
HTTP server (requests by endpoint/status), the job manager (queue depths,
per-tenant dispatch and rejections), and the result cache (hits, misses,
bytes).  The registry is the server's only accounting store: ``/v1/stats``,
``/v1/healthz`` and the journal snapshot are all read back out of it.  A
registry renders two ways and folds documents back in:

* :meth:`MetricsRegistry.render_text` -- the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` lines, escaped labels, summaries as
  ``name{quantile="0.5"}`` samples plus ``_count`` / ``_sum``), served at
  ``GET /v1/metrics``;
* :meth:`MetricsRegistry.as_document` -- the same data as plain JSON for
  programmatic consumers (``GET /v1/metrics?format=json``);
* :meth:`MetricsRegistry.merge_document` -- add another registry's JSON
  document into this one, which is how a sharded server builds its
  group-wide view.

Three metric kinds cover the service's needs, all pure dict operations off
the per-instruction hot path:

* :class:`Counter` -- monotonically increasing totals,
* :class:`Gauge` -- point-in-time values, either set directly or computed
  at read time from a callback (queue depth, uptime),
* :class:`Summary` -- one :class:`LogHistogram` per label set: fixed
  logarithmic buckets with an exact count, sum, min and max.  Buckets are
  what make summaries mergeable: adding two histograms' bucket counts gives
  exactly the histogram of the union of their samples, in memory bounded by
  the number of buckets.

Registries are cheap and isolated: each server instance owns one, so two
in-process test servers never share counters.  There is no process-wide
registry: code with no server to report to keeps a private one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError

#: The quantiles a summary exposes in its text exposition and snapshots.
SUMMARY_QUANTILES = (0.50, 0.95, 0.99)

#: LogHistogram resolution: bucket ``i`` holds the values in
#: ``(2**((i-1)/8), 2**(i/8)]``, so a bucket's upper bound overstates any
#: value in it by at most ``2**(1/8) - 1``, about 9%.
BUCKETS_PER_OCTAVE = 8

#: The bucket range: values at or below ``2**-30`` (about a nanosecond, and
#: zero) share the lowest bucket, values above ``2**40`` the highest.
LOWEST_BUCKET = -30 * BUCKETS_PER_OCTAVE
HIGHEST_BUCKET = 40 * BUCKETS_PER_OCTAVE

#: Every bucket's upper bound, lowest first.  Locating values by bisection
#: over this one table keeps each bound inside its own bucket exactly.
_BOUNDS = tuple(
    2.0 ** (index / BUCKETS_PER_OCTAVE)
    for index in range(LOWEST_BUCKET, HIGHEST_BUCKET + 1)
)


def bucket_index(value: float) -> int:
    """The histogram bucket ``value`` falls in."""
    return LOWEST_BUCKET + min(bisect_left(_BOUNDS, value), len(_BOUNDS) - 1)


def bucket_upper_bound(index: int) -> float:
    """The largest value bucket ``index`` holds."""
    return _BOUNDS[index - LOWEST_BUCKET]


class LogHistogram:
    """Samples counted in fixed logarithmic buckets.

    ``count``, ``total``, ``min`` and ``max`` are exact over the lifetime;
    :meth:`quantile` is the nearest-rank quantile resolved to its bucket.
    Memory is bounded by the number of distinct buckets seen, whatever the
    sample count, and :meth:`merge` is exact.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "LogHistogram") -> None:
        """Add ``other``'s samples to this histogram (exact)."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """The nearest-rank ``q`` quantile (0.0 if empty).

        The sample of rank ``ceil(q * count)`` is located to its bucket and
        reported as the bucket's upper bound, clamped to the observed
        min..max: never below the exact nearest-rank value and at most one
        bucket width above it.
        """
        if not self.count:
            return 0.0
        rank = max(1, -(-round(q * 100) * self.count // 100))  # ceil, whole percents
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(max(bucket_upper_bound(index), self.min), self.max)
        return self.max

    def snapshot(self) -> Dict[str, float]:
        """The ``/v1/stats`` wire form: count, mean, p50/p95/p99 and max."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
        }

    def as_sample(self) -> Dict[str, Any]:
        """The metrics-document form: the snapshot plus what a merge needs."""
        return {
            **self.snapshot(),
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "buckets": [[index, self.buckets[index]] for index in sorted(self.buckets)],
        }

    @classmethod
    def from_sample(cls, sample: Mapping[str, Any]) -> "LogHistogram":
        """Rebuild a histogram from :meth:`as_sample` output."""
        histogram = cls()
        for index, count in sample.get("buckets", ()):
            histogram.buckets[int(index)] = int(count)
        histogram.count = int(sample.get("count", 0))
        histogram.total = float(sample.get("sum", 0.0))
        if histogram.count:
            histogram.min = float(sample["min"])
            histogram.max = float(sample["max"])
        return histogram


class _CounterChild:
    """One labelled counter series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up (inc by {amount})")
        self.value += amount


class _GaugeChild:
    """One labelled gauge series, stored or computed by a callback."""

    __slots__ = ("_value", "_callback")

    def __init__(self) -> None:
        self._value = 0.0
        self._callback: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set_function(self, callback: Callable[[], float]) -> None:
        """Compute this series at read time, so it never drifts from its source."""
        self._callback = callback


class MetricFamily:
    """One named metric and its children (one child per label-value set).

    A zero-label family has exactly one child, and the child's methods
    (``inc`` / ``set`` / ``record``) are available on the family itself so
    call sites need no empty ``labels()`` hop.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> None:
        _validate_metric_name(name)
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_metric_name(label)
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """The child for one label-value set, created on first use."""
        if values and kwargs:
            raise ConfigurationError("pass label values positionally or by name, not both")
        if kwargs:
            try:
                values = tuple(str(kwargs.pop(label)) for label in self.labelnames)
            except KeyError as error:
                raise ConfigurationError(
                    f"metric {self.name!r} is missing label {error.args[0]!r}"
                ) from None
            if kwargs:
                raise ConfigurationError(
                    f"metric {self.name!r} has no labels {sorted(kwargs)}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes {len(self.labelnames)} label values "
                f"({', '.join(self.labelnames)}), got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Every ``(label values, child)`` pair, sorted for stable output."""
        return sorted(self._children.items())

    # -- zero-label convenience passthrough ----------------------------

    def _sole_child(self) -> Any:
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} has labels {self.labelnames}; call .labels() first"
            )
        return self._children[()]


class Counter(MetricFamily):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    @property
    def value(self) -> float:
        return self._sole_child().value


class Gauge(MetricFamily):
    """A point-in-time value, set directly or computed at read time."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set_function(self, callback: Callable[[], float]) -> "Gauge":
        """Compute this (zero-label) gauge's value lazily at read time."""
        self._sole_child().set_function(callback)
        return self

    def set(self, value: float) -> None:
        self._sole_child().set(value)


class Summary(MetricFamily):
    """A :class:`LogHistogram` of samples per label set."""

    kind = "summary"

    def _make_child(self) -> LogHistogram:
        return LogHistogram()

    def record(self, value: float) -> None:
        self._sole_child().record(value)


#: Family class per exposition type name (the JSON document's ``type``).
_FAMILY_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Summary)}


class MetricsRegistry:
    """A named collection of metric families with get-or-create semantics.

    Registering the same name twice returns the existing family when the
    kind, help text and label names agree, and raises otherwise -- two call
    sites silently disagreeing about a metric's shape is always a bug.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _register(self, cls, name: str, help_text: str, labelnames) -> Any:
        existing = self._families.get(name)
        if existing is not None:
            if (
                type(existing) is not cls
                or existing.labelnames != tuple(labelnames)
                or existing.help != help_text
            ):
                raise ConfigurationError(
                    f"metric {name!r} is already registered as a {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        family = cls(name, help_text, labelnames)
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def summary(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> Summary:
        return self._register(Summary, name, help_text, labelnames)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def series(self, name: str) -> Dict[Tuple[str, ...], Any]:
        """Family ``name``'s children keyed by label values ({} if unregistered)."""
        family = self._families.get(name)
        return dict(family.children()) if family is not None else {}

    # -- exposition ----------------------------------------------------

    def render_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = list(zip(family.labelnames, values))
                if isinstance(child, LogHistogram):
                    for q in SUMMARY_QUANTILES:
                        quantiled = labels + [("quantile", _format_value(q))]
                        lines.append(
                            f"{family.name}{_render_labels(quantiled)} "
                            f"{_format_value(child.quantile(q))}"
                        )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} {child.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} "
                        f"{_format_value(child.total)}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def as_document(self) -> Dict[str, Any]:
        """The registry as plain JSON (``GET /v1/metrics?format=json``)."""
        metrics: List[Dict[str, Any]] = []
        for family in self.families():
            samples: List[Dict[str, Any]] = []
            for values, child in family.children():
                labels = dict(zip(family.labelnames, values))
                if isinstance(child, LogHistogram):
                    samples.append({"labels": labels, **child.as_sample()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": samples,
                }
            )
        return {"metrics": metrics}

    def merge_document(
        self, document: Mapping[str, Any], max_gauges: Iterable[str] = ()
    ) -> None:
        """Add another registry's :meth:`as_document` into this one.

        Counters add and summaries merge their histograms, both exactly.
        Gauges add too, except those named in ``max_gauges``, which keep the
        larger value.
        """
        max_gauges = frozenset(max_gauges)
        for entry in document.get("metrics", []):
            cls = _FAMILY_KINDS.get(entry.get("type"))
            if cls is None:
                continue
            family = self._register(
                cls, entry["name"], entry.get("help", ""), entry.get("labelnames", ())
            )
            for sample in entry.get("samples", []):
                child = family.labels(**sample["labels"])
                if cls is Summary:
                    child.merge(LogHistogram.from_sample(sample))
                elif cls is Gauge and family.name in max_gauges:
                    child.set(max(child.value, float(sample["value"])))
                else:
                    child.inc(float(sample["value"]))


def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ConfigurationError(f"invalid metric/label name {name!r}")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    if value == as_int and abs(value) < 1e15:
        return str(as_int)
    return repr(float(value))
