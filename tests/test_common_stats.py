"""Tests for the statistics registry's counters and histograms."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import Histogram, StatsRegistry


class TestCounter:
    """One counter: a name in the registry's ``counts`` mapping."""

    def test_starts_at_zero(self):
        registry = StatsRegistry()
        assert registry.value("x") == 0
        assert registry.counts["x"] == 0
        # Reading never creates the counter.
        assert "x" not in registry.snapshot().counters

    def test_add_accumulates(self):
        registry = StatsRegistry()
        registry.counts["x"] += 1
        registry.bump("x", 4)
        registry.bump("x")
        assert registry.value("x") == 6
        assert registry.snapshot().counters == {"x": 6}

    def test_rejects_negative(self):
        registry = StatsRegistry()
        registry.bump("x", 2)
        with pytest.raises(ConfigurationError):
            registry.bump("x", -1)
        assert registry.value("x") == 2
        with pytest.raises(ConfigurationError):
            registry.bump("untouched", -3)
        assert registry.snapshot().counters == {"x": 2}

    def test_zero_amount_joins_the_snapshot(self):
        registry = StatsRegistry()
        registry.bump("x", 0)
        assert registry.value("x") == 0
        assert registry.snapshot().counters == {"x": 0}


class TestHistogram:
    def test_bins_by_width(self):
        histogram = Histogram("h", bin_width=30, num_bins=4)
        histogram.record(0)
        histogram.record(29)
        histogram.record(30)
        histogram.record(119)
        assert histogram.bins == [2, 1, 0, 1]

    def test_overflow_bin(self):
        histogram = Histogram("h", bin_width=10, num_bins=2)
        histogram.record(25)
        assert histogram.overflow == 1

    def test_mean(self):
        histogram = Histogram("h", bin_width=10, num_bins=4)
        histogram.record(10)
        histogram.record(30)
        assert histogram.mean() == pytest.approx(20.0)

    def test_as_series_includes_overflow(self):
        histogram = Histogram("h", bin_width=10, num_bins=2)
        histogram.record(25)
        series = histogram.as_series()
        assert series[-1] == (20, 1)

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", 10, 2).record(-1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", 0, 4)
        with pytest.raises(ConfigurationError):
            Histogram("h", 4, 0)

    def test_weighted_record(self):
        histogram = Histogram("h", bin_width=10, num_bins=4)
        histogram.record(5, weight=10)
        assert histogram.bins[0] == 10
        assert histogram.count == 10


class TestStatsRegistry:
    def test_counter_created_lazily(self):
        registry = StatsRegistry()
        registry.bump("a.b", 3)
        assert registry.value("a.b") == 3

    def test_value_of_unknown_counter_is_zero(self):
        assert StatsRegistry().value("missing") == 0

    def test_histogram_first_declaration_wins(self):
        registry = StatsRegistry()
        first = registry.histogram("h", bin_width=30, num_bins=4)
        second = registry.histogram("h", bin_width=99, num_bins=1)
        assert first is second
        assert second.bin_width == 30

    def test_snapshot_is_plain_data(self):
        registry = StatsRegistry()
        registry.bump("events", 2)
        registry.histogram("h", 10, 2).record(5)
        snapshot = registry.snapshot()
        assert type(snapshot.counters) is dict
        assert snapshot.counters["events"] == 2
        assert snapshot.histograms["h"][0] == (0, 1)
        assert snapshot.get("missing", 7) == 7
