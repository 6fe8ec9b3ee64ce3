"""Counters, histograms and the statistics registry.

The paper's evaluation is driven almost entirely by *event counts*: accesses
to each LSQ component (Table 2), ERT false positives (Figure 8a), load
re-executions (Figure 10), cycles spent in high-locality mode (Figure 11) and
the decode→address-calculation latency histogram (Figure 1).  This module
provides the small accounting vocabulary the rest of the library uses to
collect those numbers:

* :class:`Counter` -- a named monotonically increasing event counter.
* :class:`Histogram` -- a fixed-bin-width histogram (used for Figure 1).
* :class:`StatsRegistry` -- a flat namespace of counters and histograms owned
  by a simulation run.  Structures receive the registry at construction time
  and record into it; the simulation result exposes it read-only.

All classes are plain Python with no external dependencies so they can be
used from the innermost simulation loops without overhead surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.common.errors import ConfigurationError


class Counter:
    """A named, monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A histogram with uniform-width bins starting at zero.

    Values greater than or equal to ``bin_width * num_bins`` fall into the
    overflow bin, mirroring how Figure 1 of the paper groups
    decode→address-calculation distances into 30-cycle buckets.
    """

    __slots__ = ("name", "bin_width", "num_bins", "bins", "overflow", "total", "count")

    def __init__(self, name: str, bin_width: int, num_bins: int) -> None:
        if bin_width <= 0:
            raise ConfigurationError(f"histogram {name!r} bin_width must be positive")
        if num_bins <= 0:
            raise ConfigurationError(f"histogram {name!r} num_bins must be positive")
        self.name = name
        self.bin_width = bin_width
        self.num_bins = num_bins
        self.bins = [0] * num_bins
        self.overflow = 0
        self.total = 0
        self.count = 0

    def record(self, value: float, weight: int = 1) -> None:
        """Record ``value`` with the given integer ``weight``."""
        if value < 0:
            raise ConfigurationError(f"histogram {self.name!r} cannot record negative value {value}")
        if weight < 0:
            raise ConfigurationError(f"histogram {self.name!r} weight must be non-negative")
        index = int(value // self.bin_width)
        if index >= self.num_bins:
            self.overflow += weight
        else:
            self.bins[index] += weight
        self.total += value * weight
        self.count += weight

    def mean(self) -> float:
        """Return the arithmetic mean of all recorded values (0.0 if empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def fraction_below(self, threshold: float) -> float:
        """Return the fraction of recorded values strictly below ``threshold``.

        The fraction is computed from the binned representation, so it is
        exact only when ``threshold`` is a multiple of the bin width; this is
        how the paper's "91% within 30 cycles" figures are reported.
        """
        if self.count == 0:
            return 0.0
        full_bins = int(threshold // self.bin_width)
        covered = sum(self.bins[: min(full_bins, self.num_bins)])
        return covered / self.count

    def percentile_bin_upper_bound(self, percentile: float) -> int:
        """Return the smallest bin upper bound covering ``percentile`` of the mass.

        Used to reproduce the 95% / 99% coverage markers of Figure 1.  The
        returned value is expressed in the same units as recorded values.
        """
        if not 0.0 < percentile <= 1.0:
            raise ConfigurationError("percentile must lie in (0, 1]")
        if self.count == 0:
            return 0
        target = percentile * self.count
        running = 0
        for index, population in enumerate(self.bins):
            running += population
            if running >= target:
                return (index + 1) * self.bin_width
        return self.num_bins * self.bin_width

    def as_series(self) -> List[Tuple[int, int]]:
        """Return ``(bin_lower_bound, population)`` pairs including the overflow bin."""
        series = [(index * self.bin_width, population) for index, population in enumerate(self.bins)]
        series.append((self.num_bins * self.bin_width, self.overflow))
        return series

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, bin_width={self.bin_width}, "
            f"num_bins={self.num_bins}, count={self.count})"
        )


@dataclass
class StatsSnapshot:
    """An immutable snapshot of a registry, used in simulation results."""

    counters: Mapping[str, int]
    histograms: Mapping[str, List[Tuple[int, int]]]

    def get(self, name: str, default: int = 0) -> int:
        """Return a counter value by name, or ``default`` when absent."""
        return self.counters.get(name, default)


class StatsRegistry:
    """A flat namespace of counters and histograms for one simulation run.

    Counters are created lazily on first use so adding a new event to a
    structure never requires central registration.  Histograms must be
    declared explicitly because they carry binning parameters.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it if necessary."""
        existing = self._counters.get(name)
        if existing is None:
            existing = Counter(name)
            self._counters[name] = existing
        return existing

    def bump(self, name: str, amount: int = 1) -> None:
        """Convenience: increment the counter called ``name`` by ``amount``."""
        self.counter(name).add(amount)

    def value(self, name: str) -> int:
        """Return the current value of a counter (0 if it was never touched)."""
        existing = self._counters.get(name)
        return existing.value if existing is not None else 0

    def histogram(self, name: str, bin_width: int = 1, num_bins: int = 64) -> Histogram:
        """Return the histogram called ``name``, creating it with the given shape.

        Re-requesting an existing histogram ignores the shape arguments; the
        first declaration wins.
        """
        existing = self._histograms.get(name)
        if existing is None:
            existing = Histogram(name, bin_width=bin_width, num_bins=num_bins)
            self._histograms[name] = existing
        return existing

    def counters(self) -> Iterator[Counter]:
        """Iterate over all counters in name order."""
        for name in sorted(self._counters):
            yield self._counters[name]

    def histograms(self) -> Iterator[Histogram]:
        """Iterate over all histograms in name order."""
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def snapshot(self) -> StatsSnapshot:
        """Return an immutable snapshot of every counter and histogram."""
        return StatsSnapshot(
            counters={name: counter.value for name, counter in self._counters.items()},
            histograms={name: histogram.as_series() for name, histogram in self._histograms.items()},
        )

    def merge(self, other: "StatsRegistry") -> None:
        """Add every counter of ``other`` into this registry.

        Histograms are not merged (they are per-run artifacts); attempting to
        merge registries that both define the same histogram raises to avoid
        silently discarding data.
        """
        for counter in other.counters():
            self.counter(counter.name).add(counter.value)
        for histogram in other.histograms():
            if histogram.name in self._histograms:
                raise ConfigurationError(
                    f"cannot merge registries that both define histogram {histogram.name!r}"
                )

    def as_dict(self) -> Dict[str, int]:
        """Return all counters as a plain ``{name: value}`` dictionary."""
        return {name: counter.value for name, counter in sorted(self._counters.items())}


@dataclass
class RatePer100M:
    """Helper that scales raw event counts to events per 100 million instructions.

    The paper reports Table 2 and Figures 8a / 10 per 100 million committed
    instructions; our synthetic runs are much shorter, so results are scaled
    linearly by the number of committed instructions.
    """

    committed_instructions: int
    scale_target: int = 100_000_000
    _factor: float = field(init=False)

    def __post_init__(self) -> None:
        if self.committed_instructions <= 0:
            raise ConfigurationError("committed_instructions must be positive")
        self._factor = self.scale_target / self.committed_instructions

    def scale(self, raw_count: float) -> float:
        """Return ``raw_count`` scaled to the per-100M-instruction rate."""
        return raw_count * self._factor

    def scale_millions(self, raw_count: float) -> float:
        """Return the per-100M rate expressed in millions (Table 2's unit)."""
        return self.scale(raw_count) / 1e6
