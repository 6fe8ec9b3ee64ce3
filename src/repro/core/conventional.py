"""Conventional and idealised central load/store queues.

These are the two baselines the paper compares ELSQ against:

* :class:`ConventionalLSQ` -- the associative load/store queue of the OoO-64
  baseline processor (and of the OoO-64-SVW variant, where the load queue is
  replaced by Store-Vulnerability-Window re-execution).
* :class:`IdealCentralLSQ` -- the "single-cycle, unlimited-size centralized
  Load Store Queue" of Figure 7, located in the Cache Processor of the large
  window machine: high-locality operations see it in one cycle, but loads that
  execute in the Memory Processor pay the CP↔MP round trip for every search
  and cache access.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import LoadQueueScheme, SVWConfig
from repro.common.stats import StatsRegistry
from repro.core.policy import LSQPolicy
from repro.core.queues import StoreBuffer
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.core.svw import StoreVulnerabilityWindow
from repro.memory.hierarchy import MemoryHierarchy

#: Store→load forwarding latency inside a single associative queue.
_FORWARD_LATENCY = 1


class _SingleQueueLSQ(LSQPolicy):
    """An organisation with one store queue holding every in-flight store."""

    def __init__(self, stats: StatsRegistry, hierarchy: MemoryHierarchy) -> None:
        super().__init__(stats)
        self.hierarchy = hierarchy
        self._stores = StoreBuffer()

    def _search(self, load: LoadRecord) -> int:
        """Forward from the store queue or read the data cache; return the latency.

        The load forwards from the youngest older matching store still in
        flight.  A violation is flagged on the record only when a load queue
        exists to catch it (with SVW the load re-executes at commit instead,
        and only a CheckStores SVW reads ``unresolved_older_store_at_issue``).
        """
        stores = self._stores
        counts = self._counts
        store = stores.find_any_forwarding(load.address, load.size, load.seq, load.issue_cycle)
        forwarding_seq = store.seq if store is not None else -1
        svw = self._svw
        if svw is None:
            violating = stores.find_violating_store(
                load.address, load.size, load.seq, forwarding_seq, load.issue_cycle
            )
            if violating is not None:
                load.violation = True
                counts["lsq.violations"] += 1
        elif svw.config.check_stores:
            load.unresolved_older_store_at_issue = stores.any_unresolved_older_store(
                load.seq, forwarding_seq, load.issue_cycle
            )

        if store is not None:
            load.forwarded_from = store.seq
            counts["lsq.forwarded_loads"] += 1
            return _FORWARD_LATENCY + max(0, store.data_ready_cycle - load.issue_cycle)

        counts["cache.accesses"] += 1
        return self.hierarchy.access(load.address)


class ConventionalLSQ(_SingleQueueLSQ):
    """The age-indexed associative LSQ of a conventional out-of-order core.

    Loads search the store queue at issue; stores search the load queue for
    ordering violations at issue (unless the load queue has been removed in
    favour of SVW re-execution); stores write the data cache at commit.
    """

    def __init__(
        self,
        stats: StatsRegistry,
        hierarchy: MemoryHierarchy,
        load_queue_scheme: LoadQueueScheme = LoadQueueScheme.ASSOCIATIVE,
        svw_config: Optional[SVWConfig] = None,
    ) -> None:
        super().__init__(stats, hierarchy)
        self.load_queue_scheme = load_queue_scheme
        if load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION:
            self._svw = StoreVulnerabilityWindow(
                svw_config if svw_config is not None else SVWConfig(), stats
            )

    # -- issue-time events ------------------------------------------------

    def load_issued(self, load: LoadRecord) -> int:
        self._counts["hl_sq.searches"] += 1
        self._stores.prune_slow(load.decode_cycle)
        return self._search(load)

    def store_issued(self, store: StoreRecord) -> None:
        self._stores.add(store)
        if self._svw is None:
            self._counts["hl_lq.searches"] += 1


class IdealCentralLSQ(_SingleQueueLSQ):
    """Unlimited, single-cycle centralized LSQ located in the Cache Processor.

    Used as the "Central LSQ" reference point of Figure 7.  High-locality
    memory operations see a one-cycle associative search over the whole
    window; operations executing in the Memory Processor pay the interconnect
    round trip for both queue searches and cache accesses because the queue
    and the L1 live on the Cache Processor side.
    """

    def __init__(
        self,
        stats: StatsRegistry,
        hierarchy: MemoryHierarchy,
        round_trip_latency: int = 8,
    ) -> None:
        super().__init__(stats, hierarchy)
        self.round_trip_latency = round_trip_latency

    def load_issued(self, load: LoadRecord) -> int:
        self._counts["central_lsq.searches"] += 1
        self._stores.prune_slow(load.decode_cycle)
        if load.locality is Locality.HIGH:
            return self._search(load)
        self._counts["network.round_trips"] += 1
        return self._search(load) + self.round_trip_latency

    def store_issued(self, store: StoreRecord) -> None:
        self._stores.add(store)
        self._counts["central_lsq.searches"] += 1
        if store.locality is Locality.LOW:
            self._counts["network.round_trips"] += 1
