"""Tests for the one-pass out-of-order core (resources and timing behaviour)."""

from __future__ import annotations

import pytest

from repro.common.config import CoreConfig, MemoryHierarchyConfig
from repro.common.errors import ConfigurationError
from repro.isa.instruction import branch, int_alu, load, store
from repro.isa.trace import Trace
from repro.uarch.ooo_core import OutOfOrderCore
from repro.uarch.resources import BandwidthAllocator, InOrderTracker, OccupancyWindow
from repro.uarch.result import CoreResult
from repro.common.stats import StatsRegistry


class TestBandwidthAllocator:
    def test_respects_width(self):
        allocator = BandwidthAllocator(2)
        cycles = [allocator.allocate(10) for _ in range(5)]
        assert cycles == [10, 10, 11, 11, 12]

    def test_allocations_never_before_desired(self):
        allocator = BandwidthAllocator(1)
        assert allocator.allocate(100) == 100
        assert allocator.allocate(50) == 50

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            BandwidthAllocator(0)


class TestOccupancyWindow:
    def test_no_constraint_until_full(self):
        window = OccupancyWindow(2)
        assert window.constraint() == 0
        window.push(100)
        assert window.constraint() == 0
        window.push(200)
        assert window.constraint() == 100

    def test_constraint_slides(self):
        window = OccupancyWindow(2)
        window.push(100)
        window.push(200)
        window.push(300)
        assert window.constraint() == 200

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            OccupancyWindow(0)


class TestInOrderTracker:
    def test_monotonic(self):
        tracker = InOrderTracker()
        assert tracker.advance(10) == 10
        assert tracker.advance(5) == 10
        assert tracker.cycle == 10


def _simple_alu_trace(length: int = 200) -> Trace:
    return Trace([int_alu(i, dest=(i % 32) + 8) for i in range(length)], name="alu")


class TestOutOfOrderCore:
    def test_result_shape(self, tiny_trace):
        result = OutOfOrderCore().run(tiny_trace)
        assert isinstance(result, CoreResult)
        assert result.committed_instructions == len(tiny_trace)
        assert result.cycles > 0
        assert 0 < result.ipc <= 4

    def test_independent_alu_ipc_close_to_width(self):
        result = OutOfOrderCore().run(_simple_alu_trace(400))
        assert result.ipc > 2.0

    def test_dependent_chain_limits_ipc(self):
        chain = Trace(
            [int_alu(i, dest=8, srcs=(8,) if i else ()) for i in range(300)], name="chain"
        )
        result = OutOfOrderCore().run(chain)
        assert result.ipc <= 1.1

    def test_mispredicted_branches_slow_things_down(self):
        clean = Trace(
            [int_alu(i, dest=8) if i % 5 else branch(i) for i in range(400)], name="clean"
        )
        dirty = Trace(
            [int_alu(i, dest=8) if i % 5 else branch(i, mispredicted=True) for i in range(400)],
            name="dirty",
        )
        assert OutOfOrderCore().run(dirty).ipc < OutOfOrderCore().run(clean).ipc

    def test_memory_misses_limited_by_rob(self, small_trace):
        small = OutOfOrderCore(CoreConfig(rob_size=16)).run(small_trace)
        large = OutOfOrderCore(CoreConfig(rob_size=256, load_queue_entries=128,
                                          store_queue_entries=96)).run(small_trace)
        assert large.ipc >= small.ipc

    def test_deterministic(self, small_trace):
        first = OutOfOrderCore().run(small_trace)
        second = OutOfOrderCore().run(small_trace)
        assert first.cycles == second.cycles

    def test_store_load_forwarding_happens(self):
        instructions = []
        seq = 0
        for repeat in range(50):
            instructions.append(int_alu(seq, dest=8))
            seq += 1
            instructions.append(store(seq, address=0x1000 + repeat * 8, srcs=(0, 8)))
            seq += 1
            instructions.append(load(seq, dest=9, address=0x1000 + repeat * 8, srcs=(0,)))
            seq += 1
        result = OutOfOrderCore().run(Trace(instructions, name="forwarding"))
        assert result.counter("lsq.forwarded_loads") >= 40

    def test_decode_to_address_histogram_recorded(self, small_trace):
        result = OutOfOrderCore().run(small_trace)
        assert result.histogram("decode_to_address.loads") is not None
        assert result.histogram("decode_to_address.stores") is not None

    def test_counters_exposed_per_100m(self, small_trace):
        result = OutOfOrderCore().run(small_trace)
        raw = result.counter("hl_sq.searches")
        assert result.per_100m("hl_sq.searches") == pytest.approx(
            raw * 100_000_000 / result.committed_instructions
        )

    def test_speedup_over_self_is_one(self, small_trace):
        result = OutOfOrderCore().run(small_trace)
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_warm_caches_flag_matters(self, small_trace):
        """A trace warms the caches exactly when it carries region footprints:
        the same columns without them start cold."""
        assert small_trace.regions
        cold_trace = Trace.from_columns(small_trace.columns(), regions=())
        warm = OutOfOrderCore().run(small_trace)
        cold = OutOfOrderCore().run(cold_trace)
        assert cold.counter("L1.misses") > warm.counter("L1.misses")
        assert cold.cycles >= warm.cycles

    def test_custom_stats_registry_used(self, small_trace):
        registry = StatsRegistry()
        core = OutOfOrderCore(stats=registry)
        core.run(small_trace)
        assert registry.value("core.committed_instructions") == len(small_trace)

    def test_hierarchy_config_respected(self, small_trace):
        tiny_l2 = MemoryHierarchyConfig().with_l2_size(1024 * 1024)
        core = OutOfOrderCore(hierarchy_config=tiny_l2)
        assert core.hierarchy.config.l2.size_bytes == 1024 * 1024
        core.run(small_trace)
