"""Tests for Store Vulnerability Window re-execution (Section 3.5 / 5.6)."""

from __future__ import annotations


from repro.common.config import SVWConfig
from repro.common.stats import StatsRegistry
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.core.svw import StoreVulnerabilityWindow


def make_store(seq: int, address: int, commit: int) -> StoreRecord:
    return StoreRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=0,
        addr_ready_cycle=1,
        data_ready_cycle=1,
        commit_cycle=commit,
        locality=Locality.HIGH,
    )


def make_load(
    seq: int,
    address: int,
    issue: int,
    *,
    forwarded_from: int = None,
    unresolved: bool = False,
) -> LoadRecord:
    return LoadRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=0,
        issue_cycle=issue,
        locality=Locality.HIGH,
        forwarded_from=forwarded_from,
        unresolved_older_store_at_issue=unresolved,
    )


class TestSVW:
    def test_no_reexecution_without_matching_store(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), StatsRegistry())
        assert svw.check_load(make_load(5, 0x100, issue=10)) is False

    def test_reexecution_when_older_store_commits_after_load_issue(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), StatsRegistry())
        # Store 3 commits at cycle 50 -- after the load issued at 10, so the
        # load may have read stale data from the cache.
        svw.store_committed(make_store(3, 0x100, commit=50))
        assert svw.check_load(make_load(5, 0x100, issue=10)) is True

    def test_no_reexecution_when_store_committed_before_load_issue(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), StatsRegistry())
        svw.store_committed(make_store(3, 0x100, commit=5))
        assert svw.check_load(make_load(5, 0x100, issue=10)) is False

    def test_forwarded_load_protected_by_forwarding_store(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), StatsRegistry())
        svw.store_committed(make_store(3, 0x100, commit=50))
        assert svw.check_load(make_load(5, 0x100, issue=10, forwarded_from=3)) is False

    def test_forwarded_load_vulnerable_to_younger_intervening_store(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), StatsRegistry())
        svw.store_committed(make_store(3, 0x100, commit=40))
        svw.store_committed(make_store(4, 0x100, commit=50))
        load = make_load(6, 0x100, issue=10, forwarded_from=3, unresolved=True)
        assert svw.check_load(load) is True

    def test_aliasing_causes_false_reexecution(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=2), StatsRegistry())
        aliased = 0x100 + (4 << 3)
        svw.store_committed(make_store(3, aliased, commit=50))
        assert svw.check_load(make_load(5, 0x100, issue=10)) is True, "a tiny SSBF must alias"

    def test_more_bits_avoid_that_alias(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=16), StatsRegistry())
        aliased = 0x100 + (4 << 3)
        svw.store_committed(make_store(3, aliased, commit=50))
        assert svw.check_load(make_load(5, 0x100, issue=10)) is False

    def test_check_stores_filter_suppresses_reexecution(self):
        config = SVWConfig(ssbf_index_bits=12, check_stores=True)
        svw = StoreVulnerabilityWindow(config, StatsRegistry())
        svw.store_committed(make_store(3, 0x100, commit=50))
        assert svw.check_load(make_load(5, 0x100, issue=10, unresolved=False)) is False
        assert svw.check_load(make_load(6, 0x100, issue=10, unresolved=True)) is True

    def test_reexecution_counter(self):
        stats = StatsRegistry()
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=12), stats)
        svw.store_committed(make_store(3, 0x100, commit=50))
        svw.check_load(make_load(5, 0x100, issue=10))
        assert stats.value("svw.reexecutions") == 1
        assert stats.value("ssbf.lookups") == 1

    def test_youngest_store_committed_before(self):
        svw = StoreVulnerabilityWindow(SVWConfig(), StatsRegistry())
        svw.store_committed(make_store(1, 0x100, commit=10))
        svw.store_committed(make_store(2, 0x200, commit=20))
        svw.store_committed(make_store(3, 0x300, commit=30))
        assert svw.youngest_store_committed_before(25) == 2
        assert svw.youngest_store_committed_before(5) == -1

    def test_bucket_helpers(self):
        svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=10), StatsRegistry())
        assert svw.ssbf_entries == 1024
        assert svw.bucket_entry(0x100) is None
        svw.store_committed(make_store(7, 0x100, commit=10))
        assert svw.bucket_entry(0x100) == 7
        assert svw.bucket_of(0x100) == svw.bucket_of(0x104)
