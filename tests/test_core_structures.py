"""Tests for the ELSQ building blocks: hashing, ERT, store buffer, records."""

from __future__ import annotations

import pytest

from repro.common.config import ERTConfig, ERTKind
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.core.bloom import AddressHash
from repro.core.ert import HashBasedERT, LineBasedERT, build_ert
from repro.core.queues import StoreBuffer
from repro.core.records import EpochState, Locality, LoadRecord, StoreRecord
from repro.core.sqm import StoreQueueMirror
from repro.memory.hierarchy import MemoryHierarchy


def make_store(
    seq: int,
    address: int,
    *,
    decode: int = 0,
    addr_ready: int = 5,
    data_ready: int = 6,
    commit: int = 100,
    locality: Locality = Locality.HIGH,
    epoch: int = None,
    migration: int = None,
    size: int = 8,
) -> StoreRecord:
    return StoreRecord(
        seq=seq,
        address=address,
        size=size,
        decode_cycle=decode,
        addr_ready_cycle=addr_ready,
        data_ready_cycle=data_ready,
        commit_cycle=commit,
        locality=locality,
        epoch_id=epoch,
        migration_cycle=migration,
    )


class TestAddressHash:
    def test_bucket_count(self):
        assert AddressHash(10).num_buckets == 1024

    def test_word_granularity(self):
        hashed = AddressHash(10)
        assert hashed.index(0x1000) == hashed.index(0x1004)
        assert hashed.index(0x1000) != hashed.index(0x1008)

    def test_aliasing_beyond_index_bits(self):
        hashed = AddressHash(4)
        assert hashed.index(0x0) == hashed.index(0x0 + (16 << 3))

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            AddressHash(0)


class TestHashBasedERT:
    def test_candidates_most_recent_first(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        ert.insert_store(0x100, epoch_id=2)
        ert.insert_store(0x100, epoch_id=5)
        assert ert.store_candidate_epochs(0x100, live_epochs=[2, 5]) == [5, 2]

    def test_candidates_filtered_by_live_epochs(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        ert.insert_store(0x100, epoch_id=2)
        assert ert.store_candidate_epochs(0x100, live_epochs=[]) == []

    def test_exclude_own_epoch(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        ert.insert_store(0x100, epoch_id=2)
        assert ert.store_candidate_epochs(0x100, live_epochs=[2], exclude=2) == []

    def test_aliasing_produces_candidates_for_other_addresses(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=4), StatsRegistry())
        ert.insert_store(0x0, epoch_id=1)
        aliased = 0x0 + (16 << 3)
        assert ert.store_candidate_epochs(aliased, live_epochs=[1]) == [1]

    def test_more_bits_reduce_aliasing(self):
        wide = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=16), StatsRegistry())
        wide.insert_store(0x0, epoch_id=1)
        aliased_for_4_bits = 0x0 + (16 << 3)
        assert wide.store_candidate_epochs(aliased_for_4_bits, live_epochs=[1]) == []

    def test_clear_epoch_removes_contributions(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        ert.insert_store(0x100, epoch_id=2)
        ert.insert_load(0x200, epoch_id=2)
        ert.clear_epoch(2)
        assert ert.store_candidate_epochs(0x100, live_epochs=[2]) == []
        assert ert.load_candidate_epochs(0x200, live_epochs=[2]) == []
        assert ert.live_entry_count() == 0

    def test_load_and_store_tables_are_separate(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        ert.insert_load(0x100, epoch_id=3)
        assert ert.store_candidate_epochs(0x100, live_epochs=[3]) == []
        assert ert.load_candidate_epochs(0x100, live_epochs=[3]) == [3]

    def test_storage_matches_paper_4kb(self):
        ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=10), StatsRegistry())
        assert ert.storage_bytes() == 4 * 1024

    def test_requires_hash_kind(self):
        with pytest.raises(ConfigurationError):
            HashBasedERT(ERTConfig(kind=ERTKind.LINE), StatsRegistry())


class TestLineBasedERT:
    def _ert(self):
        stats = StatsRegistry()
        hierarchy = MemoryHierarchy(stats=stats)
        return LineBasedERT(ERTConfig(kind=ERTKind.LINE), stats, hierarchy), hierarchy, stats

    def test_index_is_line_number(self):
        ert, _, _ = self._ert()
        assert ert.index_of(0x100) == ert.index_of(0x11F)
        assert ert.index_of(0x100) != ert.index_of(0x120)

    def test_insert_locks_line(self):
        ert, hierarchy, _ = self._ert()
        ert.insert_store(0x4000, epoch_id=1)
        assert hierarchy.l1.is_locked(0x4000)

    def test_clear_epoch_unlocks(self):
        ert, hierarchy, _ = self._ert()
        ert.insert_store(0x4000, epoch_id=1)
        ert.clear_epoch(1)
        assert not hierarchy.l1.is_locked(0x4000)

    def test_lock_conflict_reported_when_set_full(self):
        ert, hierarchy, stats = self._ert()
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        for way in range(l1.associativity):
            assert ert.insert_store(way * set_stride, epoch_id=1) is True
        assert ert.insert_store(l1.associativity * set_stride, epoch_id=2) is False
        assert stats.value("ert.lock_conflicts") == 1

    def test_storage_uses_l1_lines(self):
        ert, hierarchy, _ = self._ert()
        assert ert.storage_bytes() == 2 * hierarchy.config.l1.num_lines * 16 // 8

    def test_build_ert_dispatch(self):
        stats = StatsRegistry()
        hierarchy = MemoryHierarchy(stats=stats)
        assert isinstance(build_ert(ERTConfig(kind=ERTKind.HASH), stats), HashBasedERT)
        assert isinstance(build_ert(ERTConfig(kind=ERTKind.LINE), stats, hierarchy), LineBasedERT)
        assert build_ert(ERTConfig(kind=ERTKind.NONE), stats) is None
        with pytest.raises(ConfigurationError):
            build_ert(ERTConfig(kind=ERTKind.LINE), stats)


class TestStoreRecordResidency:
    def test_hl_residency_ends_at_migration(self):
        store = make_store(1, 0x100, decode=0, commit=500, migration=50)
        assert store.hl_resident_at(30)
        assert not store.hl_resident_at(60)

    def test_hl_residency_ends_at_commit_without_migration(self):
        store = make_store(1, 0x100, decode=0, commit=80)
        assert store.hl_resident_at(79)
        assert not store.hl_resident_at(80)

    def test_ll_residency_window(self):
        store = make_store(1, 0x100, commit=500, locality=Locality.LOW, epoch=3, migration=50)
        assert not store.ll_resident_at(40)
        assert store.ll_resident_at(60)
        assert store.ll_resident_at(60, epoch_commit_cycle=400)
        assert not store.ll_resident_at(450, epoch_commit_cycle=400)

    def test_low_locality_requires_epoch(self):
        with pytest.raises(SimulationError):
            make_store(1, 0x100, locality=Locality.LOW)

    def test_load_record_validation(self):
        with pytest.raises(SimulationError):
            LoadRecord(seq=0, address=0x10, size=8, decode_cycle=10, issue_cycle=5, locality=Locality.HIGH)

    def test_epoch_state_liveness(self):
        state = EpochState(epoch_id=1, open_cycle=100)
        assert state.live_at(150)
        state.commit_cycle = 200
        assert state.live_at(199)
        assert not state.live_at(200)
        assert not state.live_at(50)


class TestStoreBuffer:
    def test_finds_youngest_matching_store(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, commit=200))
        buffer.add(make_store(2, 0x100, commit=200))
        store = buffer.find_any_forwarding(0x100, 8, before_seq=5, cycle=50)
        assert store is not None and store.seq == 2

    def test_ignores_younger_stores(self):
        buffer = StoreBuffer()
        buffer.add(make_store(10, 0x100, commit=200))
        assert buffer.find_any_forwarding(0x100, 8, before_seq=5, cycle=50) is None

    def test_ignores_committed_stores(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, commit=40))
        assert buffer.find_any_forwarding(0x100, 8, before_seq=5, cycle=50) is None

    def test_hl_versus_epoch_residency(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, commit=500, locality=Locality.LOW, epoch=2, migration=20))
        assert buffer.find_hl_forwarding(0x100, 8, before_seq=5, cycle=50) is None
        store = buffer.find_epoch_forwarding(2, 0x100, 8, before_seq=5, cycle=50)
        assert store is not None and store.seq == 1
        assert buffer.find_epoch_forwarding(3, 0x100, 8, before_seq=5, cycle=50) is None

    def test_unknown_address_store_does_not_forward(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, addr_ready=90, data_ready=90, commit=200))
        assert buffer.find_any_forwarding(0x100, 8, before_seq=5, cycle=50) is None

    def test_violating_store_detected(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, addr_ready=90, data_ready=90, commit=200))
        violating = buffer.find_violating_store(0x100, 8, before_seq=5, after_seq=-1, cycle=50)
        assert violating is not None and violating.seq == 1

    def test_violation_ignores_stores_older_than_forwarding_store(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, addr_ready=90, commit=200))
        assert buffer.find_violating_store(0x100, 8, before_seq=5, after_seq=1, cycle=50) is None

    def test_unresolved_older_store_check(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x500, addr_ready=90, commit=200))
        assert buffer.any_unresolved_older_store(before_seq=5, after_seq=-1, cycle=50)
        assert not buffer.any_unresolved_older_store(before_seq=5, after_seq=-1, cycle=95)
        # At the slow-store threshold (15 cycles from decode to address) a
        # store still counts as fast, and the scan must not stop before it.
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x500, decode=10, addr_ready=25, commit=200))
        buffer.add(make_store(2, 0x508, decode=10, addr_ready=26, commit=200))
        assert buffer.any_unresolved_older_store(before_seq=2, after_seq=-1, cycle=24)
        assert not buffer.any_unresolved_older_store(before_seq=2, after_seq=-1, cycle=25)
        assert buffer.any_unresolved_older_store(before_seq=5, after_seq=1, cycle=25)
        assert not buffer.any_unresolved_older_store(before_seq=5, after_seq=1, cycle=26)

    def test_rejects_stores_out_of_program_order(self):
        buffer = StoreBuffer()
        buffer.add(make_store(2, 0x100, decode=10, addr_ready=12))
        with pytest.raises(SimulationError, match="program order"):
            buffer.add(make_store(1, 0x108, decode=10, addr_ready=12))
        with pytest.raises(SimulationError, match="program order"):
            buffer.add(make_store(3, 0x108, decode=9, addr_ready=12))
        buffer.add(make_store(3, 0x108, decode=10, addr_ready=12))
        assert len(buffer) == 2

    def test_partial_overlap_forwards(self):
        buffer = StoreBuffer()
        buffer.add(make_store(1, 0x100, commit=200, size=8))
        store = buffer.find_any_forwarding(0x104, 4, before_seq=3, cycle=50)
        assert store is not None and store.seq == 1


class TestStoreQueueMirror:
    def test_access_counts_and_latency(self):
        stats = StatsRegistry()
        sqm = StoreQueueMirror(stats, access_latency=1)
        assert sqm.access() == 1
        assert stats.value("sqm.accesses") == 1

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            StoreQueueMirror(StatsRegistry(), access_latency=-1)
