"""Tests for counters, histograms and the statistics registry."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import Counter, Histogram, StatsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add_accumulates(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("x").add(-1)


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

    def test_counter_identity_is_stable(self):
        registry = StatsRegistry()
        assert registry.counter("x") is registry.counter("x")

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
        assert snapshot.counters["events"] == 2
        assert snapshot.histograms["h"][0] == (0, 1)
        assert snapshot.get("missing", 7) == 7
