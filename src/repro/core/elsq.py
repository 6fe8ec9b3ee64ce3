"""The Epoch-based Load/Store Queue (ELSQ) -- the paper's contribution.

:class:`EpochBasedLSQ` implements the full two-level disambiguation scheme of
Sections 3 and 4 on top of the structural pieces in this package:

* a small **High-Locality LSQ** searched by every high-locality load and
  store (one-cycle local search),
* a banked **Low-Locality LSQ**: one store/load queue per *epoch*, each
  mapped onto one memory engine of the FMC,
* an **Epoch Resolution Table** (line-based or hash-based) that filters
  global searches down to the epochs that may actually contain a match, and
  whose false positives are counted for Figure 8a,
* an optional **Store Queue Mirror** that lets high-locality loads forward
  from low-locality stores without a network round trip,
* the four **restricted disambiguation models** of Section 3.3, which remove
  the Load-ERT (RSAC) and/or the global load searches, and
* optional **SVW load re-execution** in place of associative load queues.

The class is an :class:`~repro.core.policy.LSQPolicy`: the FMC timing core
drives it with issue/commit events and consumes only latencies plus the
violation flag and stall/squash penalties written onto the records.  Every
structure access is recorded in the statistics registry using the Table 2
vocabulary (``hl_lq``, ``hl_sq``, ``ll_lq``, ``ll_sq``, ``ert``, ``ssbf``,
``network.round_trips``, ``cache``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import (
    DisambiguationModel,
    ELSQConfig,
    InterconnectConfig,
    LoadQueueScheme,
)
from repro.common.stats import StatsRegistry
from repro.core.ert import EpochResolutionTable, build_ert
from repro.core.policy import LSQPolicy
from repro.core.queues import StoreBuffer
from repro.core.records import EpochState, Locality, LoadRecord, StoreRecord
from repro.core.sqm import StoreQueueMirror
from repro.core.svw import StoreVulnerabilityWindow
from repro.memory.hierarchy import MemoryHierarchy

#: Latency of a local (same-queue) store→load forwarding.
_LOCAL_FORWARD_LATENCY = 1

#: Latency of one ERT lookup as seen by a load (SRAM comparable to the L1).
_ERT_LOOKUP_LATENCY = 1

#: Stall charged when a line-based ERT insertion from the HL side finds its
#: L1 set fully locked (the paper stalls migration until a way frees up).
_LOCK_STALL_PENALTY = 16

#: Squash penalty charged when a low-locality reference resolves its address
#: and cannot lock its line (the window is squashed from that instruction).
_LOCK_SQUASH_PENALTY = 64


class EpochBasedLSQ(LSQPolicy):
    """Two-level, epoch-partitioned load/store queue."""

    def __init__(
        self,
        config: ELSQConfig,
        stats: StatsRegistry,
        hierarchy: MemoryHierarchy,
        interconnect: Optional[InterconnectConfig] = None,
    ) -> None:
        super().__init__(stats)
        self.config = config
        self.hierarchy = hierarchy
        self.interconnect = interconnect if interconnect is not None else InterconnectConfig()
        self._stores = StoreBuffer()
        self._ert: Optional[EpochResolutionTable] = build_ert(config.ert, stats, hierarchy)
        self._sqm: Optional[StoreQueueMirror] = (
            StoreQueueMirror(stats) if config.store_queue_mirror else None
        )
        if config.load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION:
            self._svw = StoreVulnerabilityWindow(config.svw, stats)
        #: epoch id -> lifecycle record.
        self._epochs: Dict[int, EpochState] = {}
        #: epochs whose commit has been announced but whose ERT contribution
        #: has not yet been cleared (cleared once no future query can need it).
        self._pending_clears: List[EpochState] = []

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def epoch_opened(self, epoch_id: int, cycle: int) -> None:
        self._epochs[epoch_id] = EpochState(epoch_id=epoch_id, open_cycle=cycle)
        self.stats.bump("elsq.epochs_opened")

    def epoch_committed(self, epoch_id: int, cycle: int) -> None:
        state = self._epochs.get(epoch_id)
        if state is None:
            state = EpochState(epoch_id=epoch_id, open_cycle=cycle)
            self._epochs[epoch_id] = state
        state.commit_cycle = cycle
        self._pending_clears.append(state)
        self.stats.bump("elsq.epochs_committed")

    def _purge_committed_epochs(self, safe_cycle: int) -> None:
        """Clear ERT state of epochs no future query can still observe.

        ``safe_cycle`` is the decode cycle of the instruction being processed;
        every future query happens at or after it, so epochs that committed
        before it are invisible from now on and their ERT columns (and L1 line
        locks, for the line-based table) can be released.
        """
        if not self._pending_clears:
            return
        remaining: List[EpochState] = []
        for state in self._pending_clears:
            if state.commit_cycle is not None and state.commit_cycle <= safe_cycle:
                if self._ert is not None:
                    self._ert.clear_epoch(state.epoch_id)
                self._epochs.pop(state.epoch_id, None)
            else:
                remaining.append(state)
        self._pending_clears = remaining

    def _live_epochs_at(self, cycle: int, exclude: Optional[int] = None) -> List[int]:
        return [
            epoch_id
            for epoch_id, state in self._epochs.items()
            if state.live_at(cycle) and epoch_id != exclude
        ]

    def _epoch_commit_cycle(self, epoch_id: int) -> Optional[int]:
        state = self._epochs.get(epoch_id)
        return state.commit_cycle if state is not None else None

    # ------------------------------------------------------------------
    # Derived properties of the configuration
    # ------------------------------------------------------------------

    @property
    def _needs_load_ert(self) -> bool:
        """Whether the Loads-ERT exists (removed by restricted SAC)."""
        if self._svw is not None:
            return False
        return not self.config.disambiguation.restricts_store_address_calculation

    @property
    def _associative_load_queues(self) -> bool:
        """Whether stores search load queues for violations (no SVW)."""
        return self._svw is None

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load_issued(self, load: LoadRecord) -> int:
        self._purge_committed_epochs(load.decode_cycle)
        self._stores.prune_slow(load.decode_cycle)
        if load.locality is Locality.HIGH:
            return self._high_locality_load(load)
        return self._low_locality_load(load)

    def _high_locality_load(self, load: LoadRecord) -> int:
        cycle = load.issue_cycle
        # Local level: the HL-SQ is always searched (and the ERT in parallel).
        self.stats.bump("hl_sq.searches")
        store = self._stores.find_hl_forwarding(load.address, load.size, load.seq, cycle)
        if store is not None:
            return self._forward(load, store, extra_latency=0, local=True)

        # Global level: consult the ERT only while low-locality epochs exist
        # (otherwise the whole LL machinery is in its low-power mode).
        filter_penalty = 0
        live = self._live_epochs_at(cycle)
        if self._ert is not None and live:
            self.stats.bump("ert.lookups")
            candidates = self._ert.store_candidate_epochs(load.address, live)
            if candidates:
                filter_penalty = self._global_search_penalty()
                store, searched_epochs = self._search_candidate_epochs(load, candidates, cycle)
                if store is not None:
                    if self._sqm is None:
                        self.stats.bump("network.round_trips")
                    extra = filter_penalty + max(0, searched_epochs - 1)
                    return self._forward(load, store, extra_latency=extra, local=False)

        # No forwarding: the value comes from the data cache; the load still
        # pays the filter penalty when the ERT sent it on a useless search.
        self.stats.bump("cache.accesses")
        latency = self.hierarchy.access(load.address)
        self._check_violation(load, forwarding_seq=-1)
        return latency + filter_penalty

    def _low_locality_load(self, load: LoadRecord) -> int:
        cycle = load.issue_cycle
        epoch_id = load.epoch_id if load.epoch_id is not None else -1
        # The Loads-ERT (when present) learns this address; with the line-based
        # table this is where line-lock overflows squash the window.
        if self._ert is not None and self._needs_load_ert and load.epoch_id is not None:
            if not self._ert.insert_load(load.address, load.epoch_id):
                load.squash_penalty = _LOCK_SQUASH_PENALTY
                self.stats.bump("elsq.lock_squashes")

        # Local level: the epoch's own store queue.
        self.stats.bump("ll_sq.searches")
        store = self._stores.find_epoch_forwarding(
            epoch_id, load.address, load.size, load.seq, cycle,
            self._epoch_commit_cycle(epoch_id),
        )
        if store is not None:
            self.stats.bump("elsq.local_ll_forwards")
            return self._forward(load, store, extra_latency=0, local=True)

        # Global level: older epochs indicated by the ERT (younger epochs and
        # the HL-SQ hold only younger stores, which must not forward).
        filter_penalty = 0
        if self._ert is not None:
            older_live = [
                candidate
                for candidate in self._live_epochs_at(cycle, exclude=epoch_id)
                if candidate < epoch_id
            ]
            if older_live:
                self.stats.bump("ert.lookups")
                candidates = self._ert.store_candidate_epochs(
                    load.address, older_live, exclude=epoch_id
                )
                if candidates:
                    filter_penalty = _ERT_LOOKUP_LATENCY
                    store, _ = self._search_candidate_epochs(
                        load, candidates, cycle, remote_from_epoch=epoch_id
                    )
                    if store is not None:
                        hops = abs(epoch_id - (store.epoch_id or 0))
                        extra = filter_penalty + hops * self.interconnect.hop_latency
                        self.stats.bump("network.round_trips")
                        return self._forward(load, store, extra_latency=extra, local=False)

        # Cache access from a memory engine: data travels over the CP<->MP bus.
        self.stats.bump("cache.accesses")
        self.stats.bump("network.round_trips")
        latency = self.hierarchy.access(load.address)
        self._check_violation(load, forwarding_seq=-1)
        return latency + filter_penalty + self.interconnect.round_trip_latency

    def _search_candidate_epochs(
        self,
        load: LoadRecord,
        candidates: List[int],
        cycle: int,
        remote_from_epoch: Optional[int] = None,
    ):
        """Search candidate epochs most-recent-first; count false positives."""
        searched = 0
        for candidate in candidates:
            searched += 1
            self.stats.bump("ll_sq.searches")
            if self._sqm is not None and remote_from_epoch is None:
                self._sqm.access()
            store = self._stores.find_epoch_forwarding(
                candidate, load.address, load.size, load.seq, cycle,
                self._epoch_commit_cycle(candidate),
            )
            if store is not None:
                return store, searched
            self.stats.bump("ert.false_positives")
        return None, searched

    def _global_search_penalty(self) -> int:
        """Latency a high-locality load pays to search the low-locality level."""
        if self._sqm is not None:
            return _ERT_LOOKUP_LATENCY + self._sqm.access_latency
        return _ERT_LOOKUP_LATENCY + self.interconnect.round_trip_latency

    def _forward(
        self, load: LoadRecord, store: StoreRecord, extra_latency: int, local: bool
    ) -> int:
        """Forward ``store``'s value to ``load``; return the load's latency."""
        load.forwarded_from = store.seq
        self.stats.bump("lsq.forwarded_loads")
        if local:
            self.stats.bump("elsq.local_forwards")
        else:
            self.stats.bump("elsq.global_forwards")
        data_wait = max(0, store.data_ready_cycle - load.issue_cycle)
        self._check_violation(load, forwarding_seq=store.seq)
        return _LOCAL_FORWARD_LATENCY + data_wait + extra_latency

    def _check_violation(self, load: LoadRecord, forwarding_seq: int) -> None:
        """Flag ``load.violation`` when a load queue catches an ordering violation."""
        load.unresolved_older_store_at_issue = self._stores.any_unresolved_older_store(
            load.seq, forwarding_seq, load.issue_cycle
        )
        violating = self._stores.find_violating_store(
            load.address, load.size, load.seq, forwarding_seq, load.issue_cycle
        )
        # With SVW there is no load queue: the load re-executes at commit.
        if violating is not None and self._associative_load_queues:
            load.violation = True
            self.stats.bump("lsq.violations")

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def store_issued(self, store: StoreRecord) -> None:
        self._purge_committed_epochs(store.decode_cycle)
        self._stores.add(store)

        if store.epoch_id is not None and self._ert is not None:
            if not self._ert.insert_store(store.address, store.epoch_id):
                if store.migration_cycle is not None and store.addr_ready_cycle <= store.migration_cycle:
                    # Address known at migration: the insertion simply stalls.
                    store.insertion_stall = _LOCK_STALL_PENALTY
                    self.stats.bump("elsq.lock_stalls")
                else:
                    # Address resolved inside the LL-LSQ: squash and restart.
                    store.squash_penalty = _LOCK_SQUASH_PENALTY
                    self.stats.bump("elsq.lock_squashes")

        if self._associative_load_queues:
            if store.locality is Locality.HIGH:
                # Younger loads can only live in the HL-LQ.
                self.stats.bump("hl_lq.searches")
            else:
                # A low-locality store must check its own epoch...
                self.stats.bump("ll_lq.searches")
                # ... and, unless restricted SAC guarantees its address was
                # known before younger loads issued, the younger epochs and
                # the HL-LQ through the Loads-ERT.
                if self._needs_load_ert and self._ert is not None:
                    self.stats.bump("ert.lookups")
                    live = self._live_epochs_at(store.addr_ready_cycle, exclude=store.epoch_id)
                    younger = [
                        epoch
                        for epoch in live
                        if store.epoch_id is None or epoch > store.epoch_id
                    ]
                    candidates = self._ert.load_candidate_epochs(
                        store.address, younger, exclude=store.epoch_id
                    )
                    for _ in candidates:
                        self.stats.bump("ll_lq.searches")
                    self.stats.bump("hl_lq.searches")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def ert(self) -> Optional[EpochResolutionTable]:
        """The global disambiguation filter (``None`` for ERTKind.NONE)."""
        return self._ert

    @property
    def disambiguation(self) -> DisambiguationModel:
        """The restricted disambiguation model in force."""
        return self.config.disambiguation
