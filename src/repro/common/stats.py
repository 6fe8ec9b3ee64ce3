"""Counters, histograms and the statistics registry.

The paper's evaluation is driven almost entirely by *event counts*: accesses
to each LSQ component (Table 2), ERT false positives (Figure 8a), load
re-executions (Figure 10), cycles spent in high-locality mode (Figure 11) and
the decode→address-calculation latency histogram (Figure 1).  This module
provides the small accounting vocabulary the rest of the library uses to
collect those numbers:

* :class:`StatsRegistry` -- a flat namespace of counters and histograms owned
  by a simulation run.  Structures receive the registry at construction time
  and record into it; the simulation result exposes it read-only.  Its
  counters are one mapping from name to int, :attr:`StatsRegistry.counts`.
* :class:`Histogram` -- a fixed-bin-width histogram (used for Figure 1).

Hot paths add a literal one (or a length, which cannot be negative) in
place, ``counts["hl_sq.searches"] += 1``, which costs no Python call.
Amounts computed at run time -- wrong-path estimates, stall cycles,
end-of-run totals -- go through :meth:`StatsRegistry.bump`, the one place
that rejects a negative amount.

All classes are plain Python with no external dependencies so they can be
used from the innermost simulation loops without overhead surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.common.errors import ConfigurationError


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


class _Counts(dict):
    """A name -> int mapping in which a missing name reads as 0 and is not inserted.

    Not :class:`collections.Counter`: it defines ``__delitem__`` in Python,
    which sends every item assignment through a slot wrapper and makes an
    in-place increment about 1.7x slower.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0


class StatsRegistry:
    """A flat namespace of counters and histograms for one simulation run.

    Counters are created lazily on first use so adding a new event to a
    structure never requires central registration: a name joins
    :attr:`counts` (and the snapshot) the first time it is incremented,
    and reading a name never touched gives 0 without adding it.
    Histograms must be declared explicitly because they carry binning
    parameters.
    """

    def __init__(self) -> None:
        #: Counter name -> value.  Structures keep a reference and increment
        #: it in place; a missing name reads as 0 and is not inserted.
        self.counts: Dict[str, int] = _Counts()
        self._histograms: Dict[str, Histogram] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increase the counter called ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigurationError(f"counter {name!r} cannot decrease (got {amount})")
        self.counts[name] += amount

    def value(self, name: str) -> int:
        """Return the current value of a counter (0 if it was never touched)."""
        return self.counts[name]

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

    def snapshot(self) -> StatsSnapshot:
        """Return an immutable snapshot of every counter and histogram."""
        return StatsSnapshot(
            counters=dict(self.counts),
            histograms={name: histogram.as_series() for name, histogram in self._histograms.items()},
        )
