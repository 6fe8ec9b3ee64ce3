"""Tests for the configuration dataclasses (Table 1 defaults and validation)."""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DisambiguationModel,
    ELSQConfig,
    ERTConfig,
    ERTKind,
    FMCConfig,
    InterconnectConfig,
    LoadQueueScheme,
    MemoryEngineConfig,
    MemoryHierarchyConfig,
    SVWConfig,
)
from repro.common.errors import ConfigurationError


class TestCacheConfig:
    def test_table1_l1_geometry(self):
        l1 = MemoryHierarchyConfig().l1
        assert l1.size_bytes == 32 * 1024
        assert l1.associativity == 4
        assert l1.line_size == 32
        assert l1.latency == 1
        assert l1.num_sets == 256
        assert l1.num_lines == 1024

    def test_table1_l2_geometry(self):
        l2 = MemoryHierarchyConfig().l2
        assert l2.size_bytes == 2 * 1024 * 1024
        assert l2.latency == 10

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=32 * 1024, associativity=4, line_size=48, latency=1)

    def test_rejects_inconsistent_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, associativity=4, line_size=32, latency=1)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=3 * 32 * 128, associativity=1, line_size=32, latency=1)


class TestMemoryHierarchyConfig:
    def test_table1_defaults(self):
        config = MemoryHierarchyConfig()
        assert config.main_memory_latency == 400
        assert config.cache_ports == 2

    def test_with_l2_size(self):
        resized = MemoryHierarchyConfig().with_l2_size(8 * 1024 * 1024)
        assert resized.l2.size_bytes == 8 * 1024 * 1024
        assert resized.l1.size_bytes == 32 * 1024

    def test_with_l1(self):
        resized = MemoryHierarchyConfig().with_l1(64 * 1024, 8)
        assert resized.l1.size_bytes == 64 * 1024
        assert resized.l1.associativity == 8

    def test_rejects_l2_smaller_line_than_l1(self):
        small_line_l2 = CacheConfig(
            size_bytes=2 * 1024 * 1024, associativity=4, line_size=16, latency=10, name="L2"
        )
        with pytest.raises(ConfigurationError):
            MemoryHierarchyConfig(l2=small_line_l2)


class TestCoreConfig:
    def test_table1_defaults(self):
        core = CoreConfig()
        assert core.fetch_width == 4
        assert core.rob_size == 64
        assert core.int_issue_queue_entries == 40
        assert core.int_registers == 96
        assert core.load_queue_entries == 32
        assert core.store_queue_entries == 24

    def test_rejects_zero_rob(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(rob_size=0)


class TestMemoryEngineConfig:
    def test_table1_defaults(self):
        engine = MemoryEngineConfig()
        assert engine.max_instructions == 128
        assert engine.max_loads == 64
        assert engine.max_stores == 32
        assert engine.issue_width == 2

    def test_rejects_loads_exceeding_instructions(self):
        with pytest.raises(ConfigurationError):
            MemoryEngineConfig(max_instructions=32, max_loads=64)


class TestInterconnectConfig:
    def test_round_trip(self):
        assert InterconnectConfig().round_trip_latency == 8

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(cp_to_mp_latency=-1)


class TestERTConfig:
    def test_default_is_10_bit_hash(self):
        config = ERTConfig()
        assert config.kind is ERTKind.HASH
        assert config.hash_bits == 10
        assert config.hash_entries == 1024

    def test_hash_storage_is_2kb_per_table(self):
        # 1024 entries x 16 bits = 2 KB, matching the paper's 4 KB total.
        assert ERTConfig().storage_bytes() == 2 * 1024

    def test_line_storage_requires_l1(self):
        config = ERTConfig(kind=ERTKind.LINE)
        with pytest.raises(ConfigurationError):
            config.storage_bytes()
        l1 = MemoryHierarchyConfig().l1
        assert config.storage_bytes(l1) == l1.num_lines * 2

    def test_rejects_bad_hash_bits(self):
        with pytest.raises(ConfigurationError):
            ERTConfig(hash_bits=0)


class TestSVWConfig:
    def test_default(self):
        config = SVWConfig()
        assert config.ssbf_index_bits == 10
        assert config.ssbf_entries == 1024
        assert config.check_stores is False

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            SVWConfig(ssbf_index_bits=40)


class TestELSQConfig:
    def test_defaults_match_paper(self):
        config = ELSQConfig()
        assert config.hl_load_entries == 32
        assert config.hl_store_entries == 24
        assert config.num_epochs == 16
        assert config.epoch_load_entries == 64
        assert config.epoch_store_entries == 32
        assert config.disambiguation is DisambiguationModel.FULL

    def test_svw_with_rlac_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ELSQConfig(
                load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
                disambiguation=DisambiguationModel.RESTRICTED_LAC,
            )


class TestDisambiguationModel:
    def test_restriction_flags(self):
        assert DisambiguationModel.RESTRICTED_SAC.restricts_store_address_calculation
        assert not DisambiguationModel.RESTRICTED_SAC.restricts_load_address_calculation
        assert DisambiguationModel.RESTRICTED_LAC.restricts_load_address_calculation
        assert DisambiguationModel.RESTRICTED_SAC_LAC.restricts_store_address_calculation
        assert DisambiguationModel.RESTRICTED_SAC_LAC.restricts_load_address_calculation
        assert not DisambiguationModel.FULL.restricts_store_address_calculation


class TestFMCConfig:
    def test_window_size(self):
        config = FMCConfig()
        assert config.num_memory_engines == 16
