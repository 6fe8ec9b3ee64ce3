"""One-pass timing model of the FMC large-window processor.

The model extends the conventional out-of-order walk of
:mod:`repro.uarch.ooo_core` with the three mechanisms that give the FMC its
kilo-instruction window:

* **Execution-locality classification.** An instruction whose operands become
  ready more than ``locality_threshold_cycles`` after decode (i.e. it depends
  on an L2 or memory miss) is *low locality* and executes on a memory engine;
  everything else executes in the Cache Processor.
* **Migration and epochs.**  While the Memory Processor is busy, instructions
  leave the Cache Processor's 64-entry ROB shortly after decode and are
  appended to the current *epoch* (up to 128 instructions, 64 loads and 32
  stores per epoch, 16 epochs).  A full epoch closes and a new one opens; when
  all 16 are live the migration -- and therefore fetch -- stalls until the
  oldest epoch commits.  This is the window-size limiter of the machine.
* **Restricted disambiguation stalls.**  Under restricted SAC (LAC), a store
  (load) whose address calculation is miss-dependent blocks the migration of
  younger memory references until the address resolves, which keeps them in
  the small HL-LSQ and eventually stalls fetch -- the performance cost of the
  simplified hardware quantified in Figure 9.

The model also produces the measurements the paper derives from this machine:
the decode→address-calculation histograms of Figure 1, the fraction of cycles
with an idle Memory Processor (Figure 11), the mean number of allocated
epochs, and the wrong-path activity estimate discussed in Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import (
    ELSQConfig,
    FMCConfig,
    MemoryHierarchyConfig,
)
from repro.common.stats import StatsRegistry
from repro.core.elsq import EpochBasedLSQ
from repro.core.policy import LSQPolicy
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.isa.instruction import InstrClass, Instruction
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.ooo_core import (
    _LOCALITY_HISTOGRAM_BIN,
    _LOCALITY_HISTOGRAM_BINS,
    _VIOLATION_EXTRA_PENALTY,
    account_wrong_path,
)
from repro.uarch.resources import BandwidthAllocator, InOrderTracker, OccupancyWindow
from repro.uarch.result import CoreResult

#: Cap on the number of wrong-path instructions fetched past one mispredicted
#: branch (bounded by the space the front end can fill before redirection).
_WRONG_PATH_CAP = 256


@dataclass
class _EpochBook:
    """Per-epoch bookkeeping used while the epoch is filling."""

    epoch_id: int
    open_cycle: int
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    last_commit_cycle: int = 0


class FMCProcessor:
    """Cache Processor + Memory Processor timing model hosting an LSQ policy."""

    def __init__(
        self,
        config: Optional[FMCConfig] = None,
        elsq_config: Optional[ELSQConfig] = None,
        hierarchy_config: Optional[MemoryHierarchyConfig] = None,
        policy: Optional[LSQPolicy] = None,
        stats: Optional[StatsRegistry] = None,
        name: str = "fmc",
    ) -> None:
        self.config = config if config is not None else FMCConfig()
        self.elsq_config = elsq_config if elsq_config is not None else ELSQConfig()
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.hierarchy = MemoryHierarchy(hierarchy_config, self.stats)
        if policy is not None:
            self.policy = policy
        else:
            self.policy = EpochBasedLSQ(
                self.elsq_config, self.stats, self.hierarchy, self.config.interconnect
            )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> CoreResult:
        """Simulate ``trace`` on the FMC and return the timing result."""
        cp = self.config.cache_processor
        me = self.config.memory_engine
        stats = self.stats
        threshold = self.elsq_config.locality_threshold_cycles
        if trace.regions:
            self.hierarchy.warm_up_regions(trace.regions)

        load_hist = stats.histogram(
            "decode_to_address.loads", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
        )
        store_hist = stats.histogram(
            "decode_to_address.stores", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
        )

        fetch_bw = BandwidthAllocator(cp.fetch_width)
        cp_issue_bw = BandwidthAllocator(cp.issue_width)
        commit_bw = BandwidthAllocator(cp.commit_width)
        cache_ports = BandwidthAllocator(self.hierarchy.config.cache_ports)
        migrate_bw = BandwidthAllocator(cp.fetch_width)
        cp_rob = OccupancyWindow(cp.rob_size)
        hl_loads = OccupancyWindow(self.elsq_config.hl_load_entries)
        hl_stores = OccupancyWindow(self.elsq_config.hl_store_entries)
        epoch_pool = OccupancyWindow(self.config.num_memory_engines)
        commit_frontier = InOrderTracker()
        fetch_frontier = InOrderTracker()
        migration_frontier = InOrderTracker()

        register_ready: Dict[int, int] = {}
        epoch_issue: Dict[int, Tuple[BandwidthAllocator, InOrderTracker]] = {}

        fetch_resume_cycle = 0
        migration_block_until = 0
        mp_active_until = 0
        ll_active_cycles = 0
        epoch_live_cycle_sum = 0
        next_epoch_id = 0
        current_epoch: Optional[_EpochBook] = None
        num_loads = 0
        num_stores = 0
        wrong_path_estimate = 0.0
        last_commit_cycle = 0

        disambiguation = self.elsq_config.disambiguation

        for instruction in trace:
            # ---------------- fetch / decode ----------------
            desired_fetch = max(fetch_resume_cycle, fetch_frontier.cycle, cp_rob.constraint())
            if instruction.is_load:
                desired_fetch = max(desired_fetch, hl_loads.constraint())
            elif instruction.is_store:
                desired_fetch = max(desired_fetch, hl_stores.constraint())
            fetch_cycle = fetch_bw.allocate(desired_fetch)
            fetch_frontier.advance(fetch_cycle)
            decode_cycle = fetch_cycle + cp.decode_latency

            # ---------------- operand readiness ----------------
            if instruction.is_store and instruction.srcs:
                address_srcs = instruction.srcs[:-1] or instruction.srcs
                data_srcs = instruction.srcs[-1:]
            else:
                address_srcs = instruction.srcs
                data_srcs = ()
            addr_ready = decode_cycle
            for src in address_srcs:
                addr_ready = max(addr_ready, register_ready.get(src, 0))
            data_ready = addr_ready
            for src in data_srcs:
                data_ready = max(data_ready, register_ready.get(src, 0))

            # ---------------- locality classification ----------------
            locality = (
                Locality.LOW if addr_ready - decode_cycle > threshold else Locality.HIGH
            )
            mp_active = decode_cycle < mp_active_until
            migrates = mp_active or locality is Locality.LOW

            # ---------------- epoch assignment / migration ----------------
            epoch_id: Optional[int] = None
            migration_cycle: Optional[int] = None
            if migrates:
                if current_epoch is None or self._epoch_full(current_epoch, instruction, me):
                    if current_epoch is not None:
                        epoch_live_cycle_sum += self._close_epoch(current_epoch, epoch_pool)
                    pool_ready = epoch_pool.constraint()
                    if pool_ready > decode_cycle:
                        # Every engine holds a live epoch: opening the next
                        # one (and with it migration, and ultimately fetch)
                        # waits for the oldest epoch to commit.
                        stats.bump("fmc.migration_stall_cycles", pool_ready - decode_cycle)
                        stats.bump("fmc.migration_stalls")
                    current_epoch = _EpochBook(
                        epoch_id=next_epoch_id,
                        open_cycle=max(decode_cycle, pool_ready),
                    )
                    self.policy.epoch_opened(current_epoch.epoch_id, current_epoch.open_cycle)
                    next_epoch_id += 1
                epoch_id = current_epoch.epoch_id
                migration_desired = max(
                    decode_cycle + self.config.interconnect.cp_to_mp_latency,
                    migration_frontier.cycle,
                    current_epoch.open_cycle,
                )
                if instruction.is_memory:
                    migration_desired = max(migration_desired, migration_block_until)
                migration_cycle = migrate_bw.allocate(migration_desired)
                migration_frontier.advance(migration_cycle)
                self._book_epoch_entry(current_epoch, instruction)
                stats.bump("fmc.migrated_instructions")

                # Restricted disambiguation: a miss-dependent address
                # calculation of the restricted kind blocks migration of
                # younger memory references until it resolves (Section 3.3).
                if locality is Locality.LOW and instruction.is_store and (
                    disambiguation.restricts_store_address_calculation
                ):
                    migration_block_until = max(migration_block_until, addr_ready)
                    stats.bump("fmc.rsac_migration_blocks")
                if locality is Locality.LOW and instruction.is_load and (
                    disambiguation.restricts_load_address_calculation
                ):
                    migration_block_until = max(migration_block_until, addr_ready)
                    stats.bump("fmc.rlac_migration_blocks")

            # ---------------- issue and execute ----------------
            violation = False
            squash_penalty = 0
            insertion_stall = 0
            pending_load_record: Optional[LoadRecord] = None

            if locality is Locality.LOW and epoch_id is not None:
                issue_bw, issue_frontier = self._engine_resources(epoch_issue, epoch_id, me)
                base = max(addr_ready, migration_cycle or addr_ready, issue_frontier.cycle)
                issue_cycle = issue_bw.allocate(base)
                issue_frontier.advance(issue_cycle)
            else:
                issue_cycle = cp_issue_bw.allocate(addr_ready)
                if instruction.is_load:
                    issue_cycle = cache_ports.allocate(issue_cycle)

            if instruction.is_load:
                num_loads += 1
                load_hist.record(issue_cycle - decode_cycle)
                pending_load_record = LoadRecord(
                    seq=instruction.seq,
                    address=instruction.address or 0,
                    size=instruction.size,
                    decode_cycle=decode_cycle,
                    issue_cycle=issue_cycle,
                    locality=locality,
                    epoch_id=epoch_id,
                    migration_cycle=migration_cycle,
                )
                complete = issue_cycle + max(1, self.policy.load_issued(pending_load_record))
                violation = pending_load_record.violation
                squash_penalty = pending_load_record.squash_penalty
            elif instruction.is_store:
                num_stores += 1
                store_hist.record(issue_cycle - decode_cycle)
                complete = max(issue_cycle, data_ready)
            elif instruction.is_branch:
                complete = issue_cycle + cp.branch_latency
            else:
                latency = instruction.latency
                if latency is None:
                    latency = (
                        cp.fp_alu_latency
                        if instruction.iclass is InstrClass.FP_ALU
                        else cp.int_alu_latency
                    )
                complete = issue_cycle + latency

            if instruction.dest is not None:
                register_ready[instruction.dest] = complete

            # ---------------- commit ----------------
            commit_ready = max(complete, commit_frontier.cycle)
            commit_cycle = commit_bw.allocate(commit_ready)

            if instruction.is_store:
                store_record = StoreRecord(
                    seq=instruction.seq,
                    address=instruction.address or 0,
                    size=instruction.size,
                    decode_cycle=decode_cycle,
                    addr_ready_cycle=issue_cycle,
                    data_ready_cycle=max(issue_cycle, data_ready),
                    commit_cycle=commit_cycle,
                    locality=locality,
                    epoch_id=epoch_id,
                    migration_cycle=migration_cycle,
                )
                self.policy.store_issued(store_record)
                squash_penalty = max(squash_penalty, store_record.squash_penalty)
                insertion_stall = store_record.insertion_stall
                self.policy.store_committed(store_record)
            elif pending_load_record is not None:
                pending_load_record.commit_cycle = commit_cycle
                commit_cycle += self.policy.load_committed(pending_load_record)

            commit_frontier.advance(commit_cycle)
            last_commit_cycle = max(last_commit_cycle, commit_cycle)

            cp_leave_cycle = migration_cycle if migration_cycle is not None else commit_cycle
            cp_rob.push(cp_leave_cycle)
            if instruction.is_load:
                hl_loads.push(cp_leave_cycle)
            elif instruction.is_store:
                hl_stores.push(cp_leave_cycle)

            if current_epoch is not None and epoch_id == current_epoch.epoch_id:
                current_epoch.last_commit_cycle = max(
                    current_epoch.last_commit_cycle, commit_cycle
                )

            # ---------------- Memory Processor activity ----------------
            if migrates and migration_cycle is not None:
                interval_start = max(migration_cycle, mp_active_until)
                if commit_cycle > interval_start:
                    ll_active_cycles += commit_cycle - interval_start
                    mp_active_until = commit_cycle

            # ---------------- control / squash handling ----------------
            if instruction.is_branch and instruction.mispredicted:
                resolve_cycle = complete + cp.branch_mispredict_penalty
                fetch_resume_cycle = max(fetch_resume_cycle, resolve_cycle)
                stats.bump("core.branch_mispredicts")
                exposed = max(0, complete - fetch_cycle)
                wrong_path_estimate += min(cp.fetch_width * exposed, _WRONG_PATH_CAP)
            if violation:
                stats.bump("core.violation_squashes")
                fetch_resume_cycle = max(
                    fetch_resume_cycle,
                    complete + cp.branch_mispredict_penalty + _VIOLATION_EXTRA_PENALTY,
                )
            if squash_penalty:
                fetch_resume_cycle = max(fetch_resume_cycle, issue_cycle + squash_penalty)
            if insertion_stall:
                migration_block_until = max(migration_block_until, issue_cycle + insertion_stall)

        if current_epoch is not None:
            epoch_live_cycle_sum += self._close_epoch(current_epoch, epoch_pool)

        committed = len(trace)
        total_cycles = max(1, last_commit_cycle)
        account_wrong_path(self.policy, wrong_path_estimate, committed, num_loads, num_stores)
        self.policy.finalize(total_cycles, committed)
        stats.bump("core.cycles", total_cycles)
        stats.bump("core.committed_instructions", committed)
        stats.bump("fmc.ll_active_cycles", min(ll_active_cycles, total_cycles))
        stats.bump("fmc.epochs_allocated", next_epoch_id)

        high_locality_fraction = 1.0 - min(ll_active_cycles, total_cycles) / total_cycles
        mean_allocated_epochs = (
            epoch_live_cycle_sum / ll_active_cycles if ll_active_cycles > 0 else 0.0
        )

        return CoreResult(
            trace_name=trace.name,
            config_name=self.name,
            cycles=total_cycles,
            committed_instructions=committed,
            stats=stats.snapshot(),
            high_locality_fraction=high_locality_fraction,
            mean_allocated_epochs=mean_allocated_epochs,
            extra={"epochs_opened": float(next_epoch_id)},
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _epoch_full(book: _EpochBook, instruction: Instruction, me) -> bool:
        """Whether the epoch cannot accept ``instruction``."""
        if book.instructions >= me.max_instructions:
            return True
        if instruction.is_load and book.loads >= me.max_loads:
            return True
        if instruction.is_store and book.stores >= me.max_stores:
            return True
        return False

    @staticmethod
    def _book_epoch_entry(book: _EpochBook, instruction: Instruction) -> None:
        book.instructions += 1
        if instruction.is_load:
            book.loads += 1
        elif instruction.is_store:
            book.stores += 1

    def _close_epoch(self, book: _EpochBook, epoch_pool: OccupancyWindow) -> int:
        """Close a filled epoch: notify the policy and return its live-cycle span."""
        commit_cycle = max(book.last_commit_cycle, book.open_cycle)
        epoch_pool.push(commit_cycle)
        self.policy.epoch_committed(book.epoch_id, commit_cycle)
        return commit_cycle - book.open_cycle

    @staticmethod
    def _engine_resources(
        epoch_issue: Dict[int, Tuple[BandwidthAllocator, InOrderTracker]],
        epoch_id: int,
        me,
    ) -> Tuple[BandwidthAllocator, InOrderTracker]:
        resources = epoch_issue.get(epoch_id)
        if resources is None:
            resources = (BandwidthAllocator(me.issue_width), InOrderTracker())
            epoch_issue[epoch_id] = resources
        return resources
