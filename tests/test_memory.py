"""Tests for the cache hierarchy substrate (LRU, line locking, warm-up)."""

from __future__ import annotations

from repro.common.config import CacheConfig, MemoryHierarchyConfig
from repro.common.stats import StatsRegistry
from repro.isa.trace import RegionFootprint
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import LruState


def _tiny_cache(associativity: int = 2, sets: int = 4, line: int = 32) -> SetAssociativeCache:
    config = CacheConfig(
        size_bytes=associativity * sets * line,
        associativity=associativity,
        line_size=line,
        latency=1,
        name="tiny",
    )
    return SetAssociativeCache(config, StatsRegistry())


class TestLruState:
    def test_victim_is_least_recently_used(self):
        lru = LruState(4)
        for way in (0, 1, 2, 3):
            lru.touch(way)
        assert list(lru.eviction_order([None] * 4)) == [0, 1, 2, 3]

    def test_touch_moves_to_front(self):
        lru = LruState(2)
        lru.touch(0)
        lru.touch(1)
        lru.touch(0)
        assert list(lru.eviction_order([None] * 2)) == [1, 0]

    def test_locked_way_never_victim(self):
        cache = _tiny_cache(associativity=2, sets=1)
        cache.access(0x00)
        cache.access(0x20)
        cache.lock_line(0x00, owner=1)  # the LRU line
        cache.access(0x40)
        assert cache.probe(0x00) and not cache.probe(0x20)

    def test_all_locked_has_no_victim(self):
        cache = _tiny_cache(associativity=2, sets=1)
        cache.lock_line(0x00, owner=1)
        cache.lock_line(0x20, owner=2)
        assert cache.access(0x40) is False
        assert not cache.probe(0x40)
        assert cache.probe(0x00) and cache.probe(0x20)

    def test_unlock_restores_eligibility(self):
        cache = _tiny_cache(associativity=1, sets=1)
        cache.lock_line(0x00, owner=1)
        cache.access(0x20)
        assert cache.probe(0x00)
        cache.unlock_owner(1)
        cache.access(0x20)
        assert cache.probe(0x20) and not cache.probe(0x00)


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = _tiny_cache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True

    def test_same_line_different_offset_hits(self):
        cache = _tiny_cache()
        cache.access(0x1000)
        assert cache.access(0x1008) is True

    def test_eviction_on_conflict(self):
        cache = _tiny_cache(associativity=1, sets=4)
        set_stride = 4 * 32  # addresses one "set wrap" apart map to the same set
        cache.access(0x0)
        assert cache.access(set_stride) is False
        assert not cache.probe(0x0)
        assert cache.probe(set_stride)

    def test_probe_does_not_allocate(self):
        cache = _tiny_cache()
        assert cache.probe(0x2000) is False
        assert cache.access(0x2000) is False  # still a miss: the probe did not allocate

    def test_lock_allocates_and_pins(self):
        cache = _tiny_cache(associativity=2, sets=2)
        assert not cache.probe(0x40)
        assert cache.lock_line(0x40, owner=3) is True
        assert cache.probe(0x40)
        assert cache.is_locked(0x40)
        assert cache.locked_line_count() == 1

    def test_locked_lines_survive_conflicting_fills(self):
        cache = _tiny_cache(associativity=2, sets=1)
        cache.lock_line(0x0, owner=1)
        # Fill the other way and then force a conflict: the locked line stays.
        cache.access(0x20)
        cache.access(0x40)
        assert cache.probe(0x0)

    def test_lock_conflict_when_set_fully_locked(self):
        cache = _tiny_cache(associativity=2, sets=1)
        assert cache.lock_line(0x00, owner=1) is True
        assert cache.lock_line(0x20, owner=1) is True
        assert cache.lock_line(0x40, owner=2) is False
        assert not cache.probe(0x40)
        assert not cache.is_locked(0x40)
        assert cache.probe(0x00) and cache.probe(0x20)

    def test_unlock_owner_releases_everything(self):
        cache = _tiny_cache(associativity=2, sets=2)
        cache.lock_line(0x00, owner=7)
        cache.lock_line(0x20, owner=7)
        released = cache.unlock_owner(7)
        assert released == 2
        assert cache.locked_line_count() == 0
        assert not cache.is_locked(0x00)

    def test_line_locked_by_two_owners_needs_both_released(self):
        cache = _tiny_cache()
        cache.lock_line(0x100, owner=1)
        cache.lock_line(0x100, owner=2)
        cache.unlock_owner(1)
        assert cache.is_locked(0x100)
        cache.unlock_owner(2)
        assert not cache.is_locked(0x100)

    def test_stats_disabled_suppresses_counters(self):
        stats = StatsRegistry()
        config = CacheConfig(size_bytes=2 * 4 * 32, associativity=2, line_size=32, latency=1, name="c")
        cache = SetAssociativeCache(config, stats)
        cache.stats_enabled = False
        cache.access(0x0)
        assert stats.value("c.misses") == 0
        cache.stats_enabled = True
        cache.access(0x1000)
        assert stats.value("c.misses") == 1


class TestMemoryHierarchy:
    def test_latencies_accumulate(self):
        hierarchy = MemoryHierarchy()
        assert not hierarchy.l2.probe(0x1234)
        assert hierarchy.access(0x1234) == 1 + 10 + 400
        assert hierarchy.l1.probe(0x1234) and hierarchy.l2.probe(0x1234)
        assert hierarchy.access(0x1234) == 1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy()
        hierarchy.access(0x0)
        # Evict 0x0 from L1 by filling its set (L1 is 4-way, 256 sets).
        set_stride = 256 * 32
        for way in range(1, 6):
            hierarchy.access(way * set_stride)
        assert not hierarchy.l1.probe(0x0)
        assert hierarchy.l2.probe(0x0)
        assert hierarchy.access(0x0) == 1 + 10

    def test_probes_do_not_modify(self):
        hierarchy = MemoryHierarchy()
        for _ in range(2):
            assert not hierarchy.l1.probe(0x999000)
            assert not hierarchy.l2.probe(0x999000)

    def test_lock_passthrough(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.lock_l1_line(0x40, owner=1) is True
        assert hierarchy.unlock_l1_owner(1) == 1

    def test_warm_up_addresses_is_silent(self):
        stats = StatsRegistry()
        hierarchy = MemoryHierarchy(stats=stats)
        count = hierarchy.warm_up([0x1000, 0x2000, 0x1000])
        assert count == 3
        assert stats.value("L1.misses") == 0
        assert hierarchy.access(0x1000) == 1

    def test_warm_up_regions_small_region_becomes_resident(self):
        hierarchy = MemoryHierarchy()
        small = RegionFootprint(name="hot", base_address=0, size_bytes=16 * 1024, weight=0.9, pattern="stream")
        hierarchy.warm_up_regions([small])
        assert hierarchy.l1.probe(0x0)

    def test_warm_up_regions_huge_region_still_misses_at_start(self):
        hierarchy = MemoryHierarchy()
        huge = RegionFootprint(
            name="far", base_address=0x10_000_000, size_bytes=16 * 1024 * 1024, weight=0.1, pattern="stream"
        )
        hierarchy.warm_up_regions([huge])
        # The resident tail is the end of the region; its beginning still misses.
        assert not hierarchy.l2.probe(0x10_000_000)
        assert hierarchy.access(0x10_000_000) == 1 + 10 + 400

    def test_warm_up_regions_orders_by_density(self):
        hierarchy = MemoryHierarchy()
        # The dense small region must win L1 residency over the sparse one.
        dense = RegionFootprint(name="dense", base_address=0, size_bytes=16 * 1024, weight=0.9, pattern="stream")
        sparse = RegionFootprint(
            name="sparse", base_address=0x1_000_000, size_bytes=32 * 1024, weight=0.01, pattern="stream"
        )
        hierarchy.warm_up_regions([sparse, dense])
        assert hierarchy.l1.probe(0x0)

    def test_with_l2_size_changes_capacity_behaviour(self):
        small = MemoryHierarchy(MemoryHierarchyConfig().with_l2_size(1024 * 1024))
        large = MemoryHierarchy(MemoryHierarchyConfig().with_l2_size(8 * 1024 * 1024))
        region = RegionFootprint(
            name="mid", base_address=0, size_bytes=3 * 1024 * 1024, weight=0.5, pattern="stream"
        )
        small.warm_up_regions([region])
        large.warm_up_regions([region])
        assert large.l2.probe(0x0)
        assert not small.l1.probe(0x0) and not small.l2.probe(0x0)
