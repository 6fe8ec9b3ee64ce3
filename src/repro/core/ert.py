"""The Epoch Resolution Table (ERT) -- global disambiguation filters.

The ERT (Section 3.4 of the paper) is the structure that makes two-level
disambiguation cheap: instead of broadcasting every global search to all
epochs, a load (or store) first consults a small table that records, per
address bucket, *which epochs* contain a low-locality memory instruction to
that bucket.  Only the indicated epochs are searched, most recent first.

Two organisations are modelled:

* :class:`LineBasedERT` -- one row per L1 cache line.  Inserting an address
  requires the corresponding line to be resident and *locked* in the L1 (the
  data need not be valid); when every way of the set is already locked the
  insertion returns False and the caller stalls (HL-side insertion) or
  squashes (LL-side address resolution), exactly as the paper describes.
* :class:`HashBasedERT` -- a Bloom-style table indexed by the low ``n`` bits
  of the word address, fully decoupled from the cache.

Both keep two logical tables -- one for loads and one for stores -- and clear
an epoch's contribution in a single step when the epoch commits, which for
the line-based variant also unlocks the epoch's cache lines.
"""

from __future__ import annotations

import abc
from typing import Container, Dict, List, Optional

from repro.common.config import CacheConfig, ERTConfig, ERTKind
from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry
from repro.core.bloom import AddressHash
from repro.memory.hierarchy import MemoryHierarchy


class EpochResolutionTable(abc.ABC):
    """Base class of the two ERT organisations.

    The table is *content agnostic*: it only answers "which live epochs might
    hold a matching store (or load)?".  The caller performs the actual epoch
    search and decides whether a candidate was a false positive.
    """

    def __init__(self, config: ERTConfig, stats: StatsRegistry) -> None:
        self.config = config
        self._counts = stats.counts
        #: per-table mapping: index -> {epoch_id: insertion count}
        self._store_table: Dict[int, Dict[int, int]] = {}
        self._load_table: Dict[int, Dict[int, int]] = {}
        #: reverse index for epoch clearing: epoch -> {index: count} per table.
        self._store_epoch_indices: Dict[int, Dict[int, int]] = {}
        self._load_epoch_indices: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def index_of(self, address: int) -> int:
        """Return the table row that ``address`` maps to."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total storage of the load + store tables in bytes."""

    # ------------------------------------------------------------------
    # Insertions
    # ------------------------------------------------------------------

    def insert_store(self, address: int, epoch_id: int) -> bool:
        """Record that ``epoch_id`` holds a store with a known address at ``address``.

        Returns False on a line-lock conflict (line-based table only).
        """
        return self._insert(address, epoch_id, self._store_table, self._store_epoch_indices)

    def insert_load(self, address: int, epoch_id: int) -> bool:
        """Record that ``epoch_id`` holds a load with a known address at ``address``.

        Returns False on a line-lock conflict (line-based table only).
        """
        return self._insert(address, epoch_id, self._load_table, self._load_epoch_indices)

    def _insert(
        self,
        address: int,
        epoch_id: int,
        table: Dict[int, Dict[int, int]],
        reverse: Dict[int, Dict[int, int]],
    ) -> bool:
        index = self.index_of(address)
        row = table.setdefault(index, {})
        row[epoch_id] = row.get(epoch_id, 0) + 1
        epoch_rows = reverse.setdefault(epoch_id, {})
        epoch_rows[index] = epoch_rows.get(index, 0) + 1
        self._counts["ert.insertions"] += 1
        return True

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def store_candidate_epochs(
        self, address: int, live_epochs: Container[int], exclude: Optional[int] = None
    ) -> List[int]:
        """Return live epochs that may hold a matching *store*, most recent first.

        ``live_epochs`` is asked only about the epochs the address's row names.
        """
        return self._candidates(address, self._store_table, live_epochs, exclude)

    def load_candidate_epochs(
        self, address: int, live_epochs: Container[int], exclude: Optional[int] = None
    ) -> List[int]:
        """Return live epochs that may hold a matching *load*, most recent first."""
        return self._candidates(address, self._load_table, live_epochs, exclude)

    def _candidates(
        self,
        address: int,
        table: Dict[int, Dict[int, int]],
        live_epochs: Container[int],
        exclude: Optional[int],
    ) -> List[int]:
        row = table.get(self.index_of(address))
        if not row:
            return []
        matches = [
            epoch_id
            for epoch_id in row
            if epoch_id != exclude and epoch_id in live_epochs
        ]
        matches.sort(reverse=True)
        return matches

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def clear_epoch(self, epoch_id: int) -> None:
        """Remove every contribution of ``epoch_id`` (both tables, one sweep)."""
        for reverse, table in (
            (self._store_epoch_indices, self._store_table),
            (self._load_epoch_indices, self._load_table),
        ):
            rows = reverse.pop(epoch_id, None)
            if not rows:
                continue
            for index in rows:
                row = table.get(index)
                if row is None:
                    continue
                row.pop(epoch_id, None)
                if not row:
                    del table[index]

    def live_entry_count(self) -> int:
        """Total number of (row, epoch) pairs currently recorded (both tables)."""
        return sum(len(row) for row in self._store_table.values()) + sum(
            len(row) for row in self._load_table.values()
        )


class HashBasedERT(EpochResolutionTable):
    """ERT indexed by the low ``n`` bits of the word address (Bloom filter style)."""

    def __init__(self, config: ERTConfig, stats: StatsRegistry) -> None:
        if config.kind is not ERTKind.HASH:
            raise ConfigurationError("HashBasedERT requires an ERTConfig with kind=HASH")
        super().__init__(config, stats)
        self._hash = AddressHash(config.hash_bits)

    def index_of(self, address: int) -> int:
        return self._hash.index(address)

    def storage_bytes(self) -> int:
        # Two tables (loads + stores), entry_bits per row.
        return 2 * self.config.hash_entries * self.config.entry_bits // 8


class LineBasedERT(EpochResolutionTable):
    """ERT with one row per L1 cache line, backed by line locking.

    Inserting an address pins its line in the L1 through
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.lock_l1_line`; clearing an
    epoch releases all of that epoch's locks.  A failed lock (every way of the
    set already locked) makes the insertion return False -- the caller
    decides between stalling and squashing.
    """

    def __init__(
        self, config: ERTConfig, stats: StatsRegistry, hierarchy: MemoryHierarchy
    ) -> None:
        if config.kind is not ERTKind.LINE:
            raise ConfigurationError("LineBasedERT requires an ERTConfig with kind=LINE")
        super().__init__(config, stats)
        self._hierarchy = hierarchy
        self._line_shift = hierarchy.config.l1.line_size.bit_length() - 1

    @property
    def l1_config(self) -> CacheConfig:
        """The L1 geometry this table is coupled to."""
        return self._hierarchy.config.l1

    def index_of(self, address: int) -> int:
        return address >> self._line_shift

    def storage_bytes(self) -> int:
        return 2 * self.l1_config.num_lines * self.config.entry_bits // 8

    def _insert(
        self,
        address: int,
        epoch_id: int,
        table: Dict[int, Dict[int, int]],
        reverse: Dict[int, Dict[int, int]],
    ) -> bool:
        locked = self._hierarchy.lock_l1_line(address, owner=epoch_id)
        super()._insert(address, epoch_id, table, reverse)
        if not locked:
            # The set is fully locked: the paper stalls the insertion (HL side)
            # or squashes (LL side) and retries, so the entry does land
            # eventually.  We record it now and report the conflict so the
            # caller can charge the stall / squash penalty.
            self._counts["ert.lock_conflicts"] += 1
        return locked

    def clear_epoch(self, epoch_id: int) -> None:
        super().clear_epoch(epoch_id)
        self._hierarchy.unlock_l1_owner(epoch_id)


def build_ert(
    config: ERTConfig, stats: StatsRegistry, hierarchy: Optional[MemoryHierarchy] = None
) -> Optional[EpochResolutionTable]:
    """Construct the ERT described by ``config``.

    Returns ``None`` for :attr:`ERTKind.NONE`.  Line-based tables require the
    memory hierarchy for line locking.
    """
    if config.kind is ERTKind.NONE:
        return None
    if config.kind is ERTKind.HASH:
        return HashBasedERT(config, stats)
    if hierarchy is None:
        raise ConfigurationError("a line-based ERT requires the memory hierarchy")
    return LineBasedERT(config, stats, hierarchy)
