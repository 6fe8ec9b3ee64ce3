"""Content-search structures over in-flight stores.

The one-pass timing models process instructions in program order, so by the
time a load issues every older store's timing (address-ready, data-ready,
commit, migration) is already known.  :class:`StoreBuffer` exploits this: it
records every store and answers the three questions every LSQ organisation
asks, *as of a given cycle*:

* "Which is the youngest older store to the same bytes that was still
  buffered in queue X when the load issued?" (store→load forwarding, per
  residency class: HL-SQ, a particular LL epoch, or anywhere),
* "Was there an older store whose address was still unknown when the load
  issued?" (ordering violations and the no-unresolved-store filter), and
* "Does an older in-flight store to the same bytes exist whose address was
  unknown at load issue?" (the actual violation that forces a squash or a
  re-execution).

Searches are indexed by 8-byte word (the workloads issue word-aligned 4- or
8-byte accesses) so each query touches only the handful of stores that ever
wrote that word.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core.records import StoreRecord

#: Number of low address bits ignored by the word index.
_WORD_SHIFT = 3

#: Per-word history depth.  Forwarding and violation checks only ever need
#: the youngest few stores to a word; older ones are dead for disambiguation.
_PER_WORD_HISTORY = 32

#: Stores whose address resolves more than this many cycles after decode are
#: tracked as "slow" for the unresolved-older-store checks.
_SLOW_ADDRESS_THRESHOLD = 15

#: How many of the most recent stores are always checked for unresolved
#: addresses (covers the short decode→issue window of ordinary stores).
_RECENT_WINDOW = 48


class StoreBuffer:
    """Timing-aware record of every store processed so far."""

    def __init__(self) -> None:
        self._by_word: Dict[int, Deque[StoreRecord]] = {}
        self._recent: Deque[StoreRecord] = deque(maxlen=_RECENT_WINDOW)
        self._slow: List[StoreRecord] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add(self, store: StoreRecord) -> None:
        """Record a processed store.

        Stores must arrive in program order: ``seq`` increasing and
        ``decode_cycle`` non-decreasing, which the bounded scan of
        :meth:`any_unresolved_older_store` relies on.
        """
        if self._recent:
            last = self._recent[-1]
            if store.seq <= last.seq or store.decode_cycle < last.decode_cycle:
                raise SimulationError(
                    f"store {store.seq} (decode cycle {store.decode_cycle}) arrived after "
                    f"store {last.seq} (decode cycle {last.decode_cycle}): stores must be "
                    "added in program order"
                )
        word = store.address >> _WORD_SHIFT
        bucket = self._by_word.get(word)
        if bucket is None:
            bucket = deque(maxlen=_PER_WORD_HISTORY)
            self._by_word[word] = bucket
        bucket.append(store)
        self._recent.append(store)
        if store.addr_ready_cycle - store.decode_cycle > _SLOW_ADDRESS_THRESHOLD:
            self._slow.append(store)
        self._count += 1

    def prune_slow(self, before_cycle: int) -> None:
        """Drop slow-store bookkeeping for stores resolved before ``before_cycle``.

        Callers prune at a load's decode cycle, which no later query cycle
        precedes, so a dropped store can no longer be unresolved.
        """
        if self._slow and len(self._slow) > 64:
            self._slow = [store for store in self._slow if store.addr_ready_cycle >= before_cycle]

    # ------------------------------------------------------------------
    # Forwarding searches
    # ------------------------------------------------------------------

    def find_hl_forwarding(
        self, address: int, size: int, before_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Youngest older store to the same bytes resident in the HL-SQ at ``cycle``."""
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.hl_resident_at(cycle),
        )

    def find_epoch_forwarding(
        self,
        epoch_id: int,
        address: int,
        size: int,
        before_seq: int,
        cycle: int,
        epoch_commit_cycle: Optional[int] = None,
    ) -> Optional[StoreRecord]:
        """Youngest older matching store resident in epoch ``epoch_id`` at ``cycle``."""
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.epoch_id == epoch_id
            and store.ll_resident_at(cycle, epoch_commit_cycle),
        )

    def find_any_forwarding(
        self, address: int, size: int, before_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Youngest older matching store still in flight anywhere at ``cycle``.

        Used by the conventional and idealised central LSQs, which keep a
        single store queue.
        """
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.in_flight_at(cycle),
        )

    def _find(self, address, size, before_seq, cycle, residency) -> Optional[StoreRecord]:
        bucket = self._by_word.get(address >> _WORD_SHIFT)
        if not bucket:
            return None
        for store in reversed(bucket):
            if store.seq >= before_seq:
                continue
            if not store.overlaps(address, size):
                continue
            if not store.address_known_at(cycle):
                # The matching store's address was still unknown when the load
                # issued; the load cannot forward from it (this is the
                # violation case, reported separately).
                continue
            # The youngest matching store forwards if it is resident in the
            # searched structure; an older matching store must not forward
            # (it holds a stale value), so stop at the first address match.
            return store if residency(store) else None
        return None

    # ------------------------------------------------------------------
    # Violation and unresolved-store checks
    # ------------------------------------------------------------------

    def find_violating_store(
        self, address: int, size: int, before_seq: int, after_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Return an older overlapping store whose address was unknown at ``cycle``.

        Only stores with ``after_seq < seq < before_seq`` are considered: a
        store older than the one the load forwarded from cannot supersede the
        forwarded value.  A non-``None`` result means the load obtained stale
        data and the window must be repaired (squash or re-execution).
        """
        bucket = self._by_word.get(address >> _WORD_SHIFT)
        if not bucket:
            return None
        for store in reversed(bucket):
            if store.seq >= before_seq or store.seq <= after_seq:
                continue
            if not store.overlaps(address, size):
                continue
            if store.in_flight_at(cycle) and not store.address_known_at(cycle):
                return store
        return None

    def any_unresolved_older_store(self, before_seq: int, after_seq: int, cycle: int) -> bool:
        """Whether any store with ``after_seq < seq < before_seq`` had an unknown address at ``cycle``.

        This is the predicate of the no-unresolved-store filter
        ("CheckStores"): it is address independent, so it must consider every
        in-flight older store, not just those writing the load's word.

        Both lists are in program order, so the youngest-first walks stop at
        ``after_seq``.  The walk over the recent stores also stops at the
        first store decoded ``_SLOW_ADDRESS_THRESHOLD`` or more cycles
        before ``cycle``: it and every older store either had its address by
        ``cycle`` or is slow, and slow stores are all checked through
        ``_slow`` (the ones pruned resolved before any cycle still queried).
        """
        for store in reversed(self._recent):
            if store.seq >= before_seq:
                continue
            if store.seq <= after_seq or store.decode_cycle + _SLOW_ADDRESS_THRESHOLD <= cycle:
                break
            if store.in_flight_at(cycle) and not store.address_known_at(cycle):
                return True
        for store in reversed(self._slow):
            if store.seq >= before_seq:
                continue
            if store.seq <= after_seq:
                break
            if store.in_flight_at(cycle) and not store.address_known_at(cycle):
                return True
        return False
