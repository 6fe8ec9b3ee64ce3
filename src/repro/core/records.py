"""Timed memory-operation records shared by every LSQ model.

The timing cores (:mod:`repro.uarch`, :mod:`repro.fmc`) process the trace in
program order and, for every load and store, hand the LSQ policy a *record*
carrying the cycles the core has computed (decode, address-ready, data-ready,
commit) together with the execution-locality classification and, for
low-locality operations, the epoch the operation lives in.

Because the simulator is one-pass, a record's timing fields are fully known
by the time younger operations are processed; the LSQ structures therefore
answer "was this store still buffered when that load issued?" by comparing
cycles rather than by replaying allocation and deallocation events.

A record is also where the policy writes back what happened beyond a
latency: the store a load forwarded from, whether the load was caught in an
ordering violation, and the squash or insertion-stall penalty an operation
charges the core.  The core reads those fields right after the event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SimulationError


class Locality(enum.Enum):
    """Execution-locality class of an instruction (Section 2.2)."""

    HIGH = "high"
    LOW = "low"


@dataclass(slots=True)
class LoadRecord:
    """A load as seen by the LSQ models.

    ``issue_cycle`` is the cycle the address becomes available and the load
    searches the store queue(s) / accesses the cache.  ``commit_cycle`` is
    filled in by the core once in-order commit reaches the load.  The
    policy's ``load_issued`` returns the load's latency and writes
    ``forwarded_from``, ``violation`` and ``squash_penalty`` (and
    ``unresolved_older_store_at_issue`` under a CheckStores SVW).
    """

    seq: int
    address: int
    size: int
    decode_cycle: int
    issue_cycle: int
    locality: Locality
    epoch_id: Optional[int] = None
    #: Cycle at which the load migrated from the HL-LSQ to its LL epoch, or
    #: ``None`` when it never migrated (Memory Processor idle).
    migration_cycle: Optional[int] = None
    commit_cycle: Optional[int] = None
    forwarded_from: Optional[int] = None
    #: Whether, at issue time, an older store with a not-yet-known address was
    #: in flight between the forwarding store (if any) and this load.  Only
    #: the SVW "CheckStores" (no-unresolved-store) filter reads it, so the
    #: policies write it only under such an SVW; elsewhere it stays False.
    unresolved_older_store_at_issue: bool = False
    #: Whether an older store to the same bytes resolved its address after
    #: this load issued and a load queue caught it; the core squashes.
    violation: bool = False
    #: Cycles the core stalls fetch for from the load's issue (the squash of
    #: a line-based ERT insertion that found its L1 set fully locked).
    squash_penalty: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SimulationError(f"load {self.seq}: size must be positive")
        if self.issue_cycle < self.decode_cycle:
            raise SimulationError(
                f"load {self.seq}: issue cycle {self.issue_cycle} precedes decode "
                f"cycle {self.decode_cycle}"
            )
        if self.locality is Locality.LOW and self.epoch_id is None:
            raise SimulationError(f"load {self.seq}: low-locality loads must carry an epoch id")


@dataclass(slots=True)
class StoreRecord:
    """A store as seen by the LSQ models.

    ``addr_ready_cycle`` is when the store's address calculation completes;
    ``data_ready_cycle`` when the store's data operand is available (a load
    forwarding from this store before that point must wait);
    ``commit_cycle`` when the store leaves the store queue and writes the
    data cache.  The policy's ``store_issued`` writes ``insertion_stall``
    and ``squash_penalty``.
    """

    seq: int
    address: int
    size: int
    decode_cycle: int
    addr_ready_cycle: int
    data_ready_cycle: int
    commit_cycle: int
    locality: Locality
    epoch_id: Optional[int] = None
    #: Cycle at which the store migrated from the HL-LSQ to its LL epoch, or
    #: ``None`` when it never migrated (Memory Processor idle).
    migration_cycle: Optional[int] = None
    #: Cycles migration stalls for from the store's issue: a line-based ERT
    #: insertion, made with the address known at migration, found its L1
    #: set fully locked.
    insertion_stall: int = 0
    #: Cycles the core stalls fetch for from the store's issue: the same
    #: conflict, met by an address resolved inside the LL-LSQ, squashes.
    squash_penalty: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SimulationError(f"store {self.seq}: size must be positive")
        if self.addr_ready_cycle < self.decode_cycle:
            raise SimulationError(
                f"store {self.seq}: address-ready cycle precedes decode cycle"
            )
        if self.commit_cycle < self.addr_ready_cycle:
            raise SimulationError(
                f"store {self.seq}: commit cycle {self.commit_cycle} precedes address-ready "
                f"cycle {self.addr_ready_cycle}"
            )
        if self.locality is Locality.LOW and self.epoch_id is None:
            raise SimulationError(f"store {self.seq}: low-locality stores must carry an epoch id")

    def overlaps(self, address: int, size: int) -> bool:
        """Whether this store writes any byte of ``[address, address + size)``."""
        return self.address < address + size and address < self.address + self.size

    def in_flight_at(self, cycle: int) -> bool:
        """Whether the store still occupies a store-queue entry at ``cycle``."""
        return self.decode_cycle <= cycle < self.commit_cycle

    def address_known_at(self, cycle: int) -> bool:
        """Whether the store's address calculation had completed by ``cycle``."""
        return self.addr_ready_cycle <= cycle

    def hl_resident_at(self, cycle: int) -> bool:
        """Whether the store occupies a High-Locality SQ entry at ``cycle``.

        A store lives in the HL-SQ from decode until it migrates to an epoch
        or, if it never migrates, until it commits.
        """
        if cycle < self.decode_cycle:
            return False
        hl_end = self.commit_cycle if self.migration_cycle is None else self.migration_cycle
        return cycle < hl_end

    def ll_resident_at(self, cycle: int, epoch_commit_cycle: Optional[int] = None) -> bool:
        """Whether the store occupies a Low-Locality (epoch) SQ entry at ``cycle``.

        ``epoch_commit_cycle`` is the commit cycle of the store's epoch when
        known; a still-open epoch is treated as live.
        """
        if self.migration_cycle is None or cycle < self.migration_cycle:
            return False
        if epoch_commit_cycle is None:
            return True
        return cycle < epoch_commit_cycle


@dataclass(slots=True)
class EpochState:
    """Lifecycle of one epoch (LL-LSQ bank) as seen by the LSQ models."""

    epoch_id: int
    open_cycle: int
    commit_cycle: Optional[int] = None

    def live_at(self, cycle: int) -> bool:
        """Whether the epoch still holds instructions at ``cycle``."""
        return self.open_cycle <= cycle and (self.commit_cycle is None or cycle < self.commit_cycle)
