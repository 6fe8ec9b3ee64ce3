"""Tests for the LSQ policies: conventional, idealised central, and the ELSQ."""

from __future__ import annotations

import pytest

from repro.common.config import (
    DisambiguationModel,
    ELSQConfig,
    ERTConfig,
    ERTKind,
    LoadQueueScheme,
    SVWConfig,
)
from repro.common.stats import StatsRegistry
from repro.core.conventional import ConventionalLSQ, IdealCentralLSQ
from repro.core.elsq import EpochBasedLSQ
from repro.core.queues import StoreBuffer
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.memory.hierarchy import MemoryHierarchy


def make_store(
    seq,
    address,
    *,
    decode=0,
    addr_ready=5,
    data_ready=6,
    commit=1000,
    locality=Locality.HIGH,
    epoch=None,
    migration=None,
):
    return StoreRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=decode,
        addr_ready_cycle=addr_ready,
        data_ready_cycle=data_ready,
        commit_cycle=commit,
        locality=locality,
        epoch_id=epoch,
        migration_cycle=migration,
    )


def make_load(seq, address, issue, *, locality=Locality.HIGH, epoch=None, migration=None):
    return LoadRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=0,
        issue_cycle=issue,
        locality=locality,
        epoch_id=epoch,
        migration_cycle=migration,
    )


@pytest.fixture
def env():
    stats = StatsRegistry()
    hierarchy = MemoryHierarchy(stats=stats)
    return stats, hierarchy


class TestConventionalLSQ:
    def test_forwarding_beats_cache(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        load = make_load(2, 0x100, issue=20)
        latency = policy.load_issued(load)
        assert load.forwarded_from == 1
        assert latency <= 2
        assert stats.value("lsq.forwarded_loads") == 1

    def test_cache_access_when_no_store_matches(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        load = make_load(2, 0x2000, issue=20)
        latency = policy.load_issued(load)
        assert load.forwarded_from is None
        assert latency >= hierarchy.config.l1.latency
        assert stats.value("cache.accesses") == 1

    def test_forwarding_waits_for_store_data(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, data_ready=60))
        load = make_load(2, 0x100, issue=20)
        latency = policy.load_issued(load)
        assert load.forwarded_from == 1
        assert latency >= 40

    def test_violation_detected_for_unresolved_matching_store(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, addr_ready=90, data_ready=90))
        load = make_load(2, 0x100, issue=20)
        policy.load_issued(load)
        assert load.violation
        assert load.squash_penalty == 0
        assert stats.value("lsq.violations") == 1

    def test_store_search_counters(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        policy.load_issued(make_load(2, 0x100, issue=20))
        assert stats.value("hl_sq.searches") == 1
        assert stats.value("hl_lq.searches") == 1

    def test_store_commit_writes_cache(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_committed(make_store(1, 0x100))
        assert stats.value("cache.store_writebacks") == 1

    def test_svw_variant_removes_load_queue_and_reexecutes(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(
            stats,
            hierarchy,
            load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
            svw_config=SVWConfig(ssbf_index_bits=12),
        )
        # The store's address resolves only at cycle 90, after the load issued
        # at cycle 10: the load reads a stale cache value and must re-execute.
        store = make_store(1, 0x100, addr_ready=90, data_ready=90, commit=95)
        policy.store_issued(store)
        assert stats.value("hl_lq.searches") == 0
        load = make_load(2, 0x100, issue=10)
        policy.load_issued(load)
        assert not load.violation  # SVW repairs at commit instead of squashing
        policy.store_committed(store)
        load.commit_cycle = 100
        assert policy.load_committed(load) >= 1
        assert stats.value("svw.reexecutions") == 1
        assert stats.value("cache.reexecution_accesses") == 1

    def test_wrong_path_accounting(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.record_wrong_path_activity(wrong_path_loads=10, wrong_path_stores=4)
        assert stats.value("hl_sq.searches") == 10
        assert stats.value("hl_lq.searches") == 4


class TestIdealCentralLSQ:
    def test_low_locality_load_pays_round_trip(self, env):
        stats, hierarchy = env
        policy = IdealCentralLSQ(stats, hierarchy, round_trip_latency=8)
        hierarchy.warm_up([0x3000])  # make both accesses L1 hits
        near = policy.load_issued(make_load(2, 0x3000, issue=20))
        far = policy.load_issued(make_load(3, 0x3000, issue=30, locality=Locality.LOW, epoch=0))
        assert far == near + 8
        assert stats.value("network.round_trips") == 1

    def test_forwarding_from_any_store(self, env):
        stats, hierarchy = env
        policy = IdealCentralLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10))
        load = make_load(2, 0x100, issue=20)
        policy.load_issued(load)
        assert load.forwarded_from == 1


def elsq_policy(stats, hierarchy, **overrides) -> EpochBasedLSQ:
    config = ELSQConfig(**overrides) if overrides else ELSQConfig()
    return EpochBasedLSQ(config, stats, hierarchy)


class TestEpochBasedLSQ:
    def test_hl_load_forwards_locally_from_hl_store(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        load = make_load(2, 0x100, issue=20)
        policy.load_issued(load)
        assert load.forwarded_from == 1
        assert stats.value("hl_sq.searches") == 1
        assert stats.value("ert.lookups") == 0, "no live epochs, the ERT stays idle"

    def test_hl_load_finds_ll_store_through_ert_and_sqm(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        before = stats.value("ert.lookups")
        load = make_load(2, 0x100, issue=30)
        policy.load_issued(load)
        assert load.forwarded_from == 1
        assert stats.value("ert.lookups") == before + 1
        assert stats.value("ll_sq.searches") == 1
        assert stats.value("sqm.accesses") >= 1
        assert stats.value("network.round_trips") == 0, "the SQM avoids the round trip"

    def test_without_sqm_the_global_forward_costs_a_round_trip(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy, store_queue_mirror=False)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        load = make_load(2, 0x100, issue=30)
        latency = policy.load_issued(load)
        assert load.forwarded_from == 1
        assert stats.value("network.round_trips") == 1
        assert latency >= 8

    def test_sqm_forward_is_faster_than_round_trip(self, env):
        stats, hierarchy = env
        with_sqm = elsq_policy(StatsRegistry(), hierarchy)
        without_sqm = elsq_policy(StatsRegistry(), hierarchy, store_queue_mirror=False)
        for policy in (with_sqm, without_sqm):
            policy.epoch_opened(0, cycle=5)
            policy.store_issued(
                make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
            )
        fast = with_sqm.load_issued(make_load(2, 0x100, issue=30))
        slow = without_sqm.load_issued(make_load(2, 0x100, issue=30))
        assert fast < slow

    def test_ll_load_local_epoch_forwarding_is_cheap(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(3, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=3, migration=10, addr_ready=12)
        )
        load = make_load(2, 0x100, issue=40, locality=Locality.LOW, epoch=3, migration=15)
        latency = policy.load_issued(load)
        assert load.forwarded_from == 1
        assert latency <= 4
        assert stats.value("elsq.local_ll_forwards") == 1

    def test_ll_load_cache_access_pays_round_trip(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(3, cycle=5)
        load = make_load(2, 0x8000, issue=40, locality=Locality.LOW, epoch=3, migration=15)
        latency = policy.load_issued(load)
        assert load.forwarded_from is None
        assert latency >= hierarchy.config.l1.latency + 8
        assert stats.value("network.round_trips") == 1

    def test_false_positive_counted_for_aliased_hash(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.HASH, hash_bits=4)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        aliased_address = 0x100 + (16 << 3)
        load = make_load(2, aliased_address, issue=30)
        policy.load_issued(load)
        assert load.forwarded_from is None
        assert stats.value("ert.false_positives") == 1

    def test_committed_epoch_no_longer_searched(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12, commit=50)
        )
        policy.epoch_committed(0, cycle=50)
        load = make_load(2, 0x100, issue=100)
        policy.load_issued(load)
        assert load.forwarded_from is None

    def test_rsac_removes_load_ert_and_global_store_searches(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy, disambiguation=DisambiguationModel.RESTRICTED_SAC)
        assert not policy._needs_load_ert
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x900, locality=Locality.LOW, epoch=0, migration=10, addr_ready=8)
        )
        # The store searched only its local epoch LQ, never the Load-ERT.
        assert stats.value("ll_lq.searches") == 1
        assert stats.value("ert.lookups") == 0

    def test_full_model_store_does_global_load_search(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x900, locality=Locality.LOW, epoch=0, migration=10, addr_ready=40)
        )
        assert stats.value("ert.lookups") == 1
        assert stats.value("hl_lq.searches") == 1

    def test_ll_store_load_ert_search_counts_only_younger_epochs(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        for epoch in (0, 1, 2):
            policy.epoch_opened(epoch, cycle=5)
        # Loads to one address in an older and a younger epoch enter the Loads-ERT.
        for seq, epoch in ((1, 0), (2, 2)):
            policy.load_issued(
                make_load(seq, 0x900, issue=20, locality=Locality.LOW, epoch=epoch, migration=10)
            )
        before = stats.value("ll_lq.searches")
        policy.store_issued(
            make_store(3, 0x900, locality=Locality.LOW, epoch=1, migration=10, addr_ready=40)
        )
        # The store's own epoch plus the younger epoch 2, never the older epoch 0.
        assert stats.value("ll_lq.searches") == before + 2

    def test_ll_load_never_searches_younger_epochs(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        for epoch in (0, 1, 2):
            policy.epoch_opened(epoch, cycle=5)
        policy.store_issued(
            make_store(1, 0x900, locality=Locality.LOW, epoch=2, migration=10, addr_ready=12)
        )
        lookups = stats.value("ert.lookups")
        load = make_load(5, 0x900, issue=40, locality=Locality.LOW, epoch=1, migration=15)
        policy.load_issued(load)
        # The ERT names epoch 2 for the address, but only epoch 0 is older and live.
        assert load.forwarded_from is None
        assert stats.value("ert.lookups") == lookups + 1
        assert stats.value("ll_sq.searches") == 1, "only the load's own epoch"

    def test_hl_store_only_searches_hl_lq(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.store_issued(make_store(1, 0x900))
        assert stats.value("hl_lq.searches") == 1
        assert stats.value("ll_lq.searches") == 0

    def test_svw_scheme_counts_reexecutions_instead_of_violations(self, env):
        stats, hierarchy = env
        policy = elsq_policy(
            stats, hierarchy, load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
            svw=SVWConfig(ssbf_index_bits=12),
        )
        store = make_store(1, 0x100, addr_ready=90, data_ready=90, commit=95)
        policy.store_issued(store)
        load = make_load(2, 0x100, issue=20)
        policy.load_issued(load)
        assert not load.violation
        policy.store_committed(store)
        load.commit_cycle = 120
        assert policy.load_committed(load) >= 1
        assert stats.value("svw.reexecutions") == 1
        assert stats.value("hl_lq.searches") == 0

    def test_line_based_lock_squash_for_ll_resolved_store(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.LINE)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=0)
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        # Fill one L1 set with locked lines from address-known insertions.
        for way in range(l1.associativity):
            policy.store_issued(
                make_store(
                    way + 1,
                    way * set_stride,
                    locality=Locality.LOW,
                    epoch=0,
                    migration=10,
                    addr_ready=5,
                )
            )
        # A store resolving its address inside the LL-LSQ now conflicts.
        store = make_store(
            99,
            l1.associativity * set_stride,
            locality=Locality.LOW,
            epoch=0,
            migration=10,
            addr_ready=50,
        )
        policy.store_issued(store)
        assert store.squash_penalty > 0
        assert store.insertion_stall == 0
        assert stats.value("elsq.lock_squashes") == 1

    def test_line_based_lock_stall_for_hl_inserted_store(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.LINE)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=0)
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        for way in range(l1.associativity):
            policy.store_issued(
                make_store(way + 1, way * set_stride, locality=Locality.LOW, epoch=0,
                           migration=10, addr_ready=5)
            )
        store = make_store(99, l1.associativity * set_stride, locality=Locality.LOW, epoch=0,
                           migration=20, addr_ready=5)
        policy.store_issued(store)
        assert store.insertion_stall > 0
        assert store.squash_penalty == 0
        assert stats.value("elsq.lock_stalls") == 1

    def test_line_based_lock_squash_for_ll_load(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.LINE)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=0)
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        for way in range(l1.associativity):
            policy.store_issued(
                make_store(way + 1, way * set_stride, locality=Locality.LOW, epoch=0,
                           migration=10, addr_ready=5)
            )
        # The Loads-ERT insertion of a low-locality load meets the full set.
        load = make_load(
            99, l1.associativity * set_stride, issue=40, locality=Locality.LOW, epoch=0,
            migration=15,
        )
        policy.load_issued(load)
        assert load.squash_penalty > 0
        assert not load.violation
        assert stats.value("elsq.lock_squashes") == 1

    def test_introspection_properties(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        assert policy.disambiguation is DisambiguationModel.FULL
        assert policy.ert is not None


def _svw_policies(stats, hierarchy, svw_config):
    """A conventional LSQ and an ELSQ whose load queues are replaced by ``svw_config``."""
    return [
        ConventionalLSQ(
            stats,
            hierarchy,
            load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
            svw_config=svw_config,
        ),
        elsq_policy(
            stats, hierarchy, load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION, svw=svw_config
        ),
    ]


class TestCheckStoresGate:
    """Only a CheckStores SVW reads whether an older store was unresolved at issue."""

    @pytest.mark.parametrize("kind", ["conventional", "elsq"])
    def test_checking_svw_sees_the_unresolved_older_store(self, env, kind):
        stats, hierarchy = env
        conventional, elsq = _svw_policies(stats, hierarchy, SVWConfig(check_stores=True))
        policy = conventional if kind == "conventional" else elsq
        # An older store to another address resolves its address only at cycle 90.
        policy.store_issued(make_store(1, 0x4000, addr_ready=90, data_ready=90))
        load = make_load(2, 0x100, issue=20)
        policy.load_issued(load)
        assert load.unresolved_older_store_at_issue is True
        assert not load.violation
        resolved = make_load(3, 0x100, issue=95)
        policy.load_issued(resolved)
        assert resolved.unresolved_older_store_at_issue is False

    @pytest.mark.parametrize(
        "kind", ["conventional", "central", "elsq", "conventional-blind-svw", "elsq-blind-svw"]
    )
    def test_no_unresolved_scan_without_a_checking_svw(self, env, monkeypatch, kind):
        stats, hierarchy = env
        calls = []
        scan = StoreBuffer.any_unresolved_older_store

        def counting_scan(buffer, *args):
            calls.append(args)
            return scan(buffer, *args)

        monkeypatch.setattr(StoreBuffer, "any_unresolved_older_store", counting_scan)
        blind_conventional, blind_elsq = _svw_policies(
            stats, hierarchy, SVWConfig(check_stores=False)
        )
        policy = {
            "conventional": ConventionalLSQ(stats, hierarchy),
            "central": IdealCentralLSQ(stats, hierarchy),
            "elsq": elsq_policy(stats, hierarchy),
            "conventional-blind-svw": blind_conventional,
            "elsq-blind-svw": blind_elsq,
        }[kind]
        policy.store_issued(make_store(1, 0x4000, addr_ready=90, data_ready=90))
        policy.store_issued(make_store(2, 0x100, decode=1))
        policy.load_issued(make_load(3, 0x100, issue=20))
        policy.load_issued(make_load(4, 0x200, issue=20))
        assert calls == []
        assert stats.value("hl_sq.searches") + stats.value("central_lsq.searches") >= 2
