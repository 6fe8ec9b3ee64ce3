"""One-pass timing model of a conventional out-of-order core.

This is the OoO-64 baseline of the paper (Table 1): a 4-wide machine with a
64-entry reorder buffer, conventional associative load/store queues and the
default two-level cache hierarchy.  The model walks the trace once in program
order and computes, for every instruction,

* its fetch cycle -- constrained by fetch bandwidth, in-order fetch, the
  reorder-buffer and load/store-queue occupancy, and any refetch bubble left
  behind by a mispredicted branch or an ordering-violation squash,
* its ready cycle -- the latest of its source registers' ready cycles,
* its issue cycle -- ready plus issue-bandwidth (and cache-port) arbitration,
* its completion cycle -- issue plus execution latency; loads obtain their
  latency from the LSQ policy (forwarding or cache access),
* its commit cycle -- in-order, commit-bandwidth limited, delayed further by
  load re-execution when the SVW scheme is active.

The walk is *single pass* because every constraint an instruction faces is a
function of older instructions only; this keeps the model fast enough to run
whole parameter sweeps in pure Python while still exhibiting the behaviours
the paper's evaluation depends on (ROB-limited memory-level parallelism,
mispredict bubbles, LSQ occupancy stalls).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import CoreConfig, MemoryHierarchyConfig
from repro.common.stats import StatsRegistry
from repro.core.conventional import ConventionalLSQ
from repro.core.policy import LSQPolicy
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.isa.instruction import InstrClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.resources import BandwidthAllocator, InOrderTracker, OccupancyWindow
from repro.uarch.result import CoreResult

#: Additional penalty (on top of the branch-mispredict penalty) charged when
#: an ordering violation squashes the window from the violating load.
_VIOLATION_EXTRA_PENALTY = 8

#: Fraction of fetched wrong-path instructions assumed to issue and touch the
#: LSQ before the squash (Section 6 wrong-path activity approximation).
_WRONG_PATH_ACTIVITY_FACTOR = 0.3

#: Bin width (cycles) of the decode→address-calculation histogram (Figure 1).
_LOCALITY_HISTOGRAM_BIN = 30
_LOCALITY_HISTOGRAM_BINS = 50


def account_wrong_path(
    policy: LSQPolicy,
    wrong_path_estimate: float,
    committed: int,
    num_loads: int,
    num_stores: int,
) -> None:
    """Attribute estimated wrong-path LSQ activity to the policy counters."""
    if committed == 0 or wrong_path_estimate <= 0:
        return
    active = wrong_path_estimate * _WRONG_PATH_ACTIVITY_FACTOR
    load_fraction = num_loads / committed
    store_fraction = num_stores / committed
    policy.record_wrong_path_activity(
        wrong_path_loads=int(active * load_fraction),
        wrong_path_stores=int(active * store_fraction),
    )


class OutOfOrderCore:
    """Conventional superscalar out-of-order processor model."""

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        hierarchy_config: Optional[MemoryHierarchyConfig] = None,
        policy: Optional[LSQPolicy] = None,
        stats: Optional[StatsRegistry] = None,
        name: str = "ooo",
    ) -> None:
        self.config = config if config is not None else CoreConfig()
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.hierarchy = MemoryHierarchy(hierarchy_config, self.stats)
        self.policy = (
            policy if policy is not None else ConventionalLSQ(self.stats, self.hierarchy)
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> CoreResult:
        """Simulate ``trace`` and return the timing result."""
        cfg = self.config
        stats = self.stats
        if trace.regions:
            self.hierarchy.warm_up_regions(trace.regions)
        load_hist = stats.histogram(
            "decode_to_address.loads", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
        )
        store_hist = stats.histogram(
            "decode_to_address.stores", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
        )

        fetch_bw = BandwidthAllocator(cfg.fetch_width)
        issue_bw = BandwidthAllocator(cfg.issue_width)
        commit_bw = BandwidthAllocator(cfg.commit_width)
        cache_ports = BandwidthAllocator(self.hierarchy.config.cache_ports)
        rob = OccupancyWindow(cfg.rob_size)
        load_queue = OccupancyWindow(cfg.load_queue_entries)
        store_queue = OccupancyWindow(cfg.store_queue_entries)
        commit_frontier = InOrderTracker()
        fetch_frontier = InOrderTracker()

        register_ready: Dict[int, int] = {}
        fetch_resume_cycle = 0
        num_loads = 0
        num_stores = 0
        wrong_path_estimate = 0.0
        last_commit_cycle = 0

        for instruction in trace:
            # ---------------- fetch / decode ----------------
            desired_fetch = max(fetch_resume_cycle, fetch_frontier.cycle, rob.constraint())
            if instruction.is_load:
                desired_fetch = max(desired_fetch, load_queue.constraint())
            elif instruction.is_store:
                desired_fetch = max(desired_fetch, store_queue.constraint())
            fetch_cycle = fetch_bw.allocate(desired_fetch)
            fetch_frontier.advance(fetch_cycle)
            decode_cycle = fetch_cycle + cfg.decode_latency

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

            # ---------------- issue and execute ----------------
            violation = False
            squash_penalty = 0
            if instruction.is_load:
                num_loads += 1
                issue_cycle = issue_bw.allocate(addr_ready)
                issue_cycle = cache_ports.allocate(issue_cycle)
                load_hist.record(issue_cycle - decode_cycle)
                record = LoadRecord(
                    seq=instruction.seq,
                    address=instruction.address or 0,
                    size=instruction.size,
                    decode_cycle=decode_cycle,
                    issue_cycle=issue_cycle,
                    locality=Locality.HIGH,
                )
                complete = issue_cycle + max(1, self.policy.load_issued(record))
                violation = record.violation
                squash_penalty = record.squash_penalty
                pending_load_record: Optional[LoadRecord] = record
                pending_store_record: Optional[StoreRecord] = None
            elif instruction.is_store:
                num_stores += 1
                issue_cycle = issue_bw.allocate(addr_ready)
                store_hist.record(issue_cycle - decode_cycle)
                complete = max(issue_cycle, data_ready)
                pending_load_record = None
                pending_store_record = None  # created after commit is known
            elif instruction.is_branch:
                issue_cycle = issue_bw.allocate(addr_ready)
                complete = issue_cycle + cfg.branch_latency
                pending_load_record = None
                pending_store_record = None
            else:
                issue_cycle = issue_bw.allocate(addr_ready)
                latency = instruction.latency
                if latency is None:
                    latency = (
                        cfg.fp_alu_latency
                        if instruction.iclass is InstrClass.FP_ALU
                        else cfg.int_alu_latency
                    )
                complete = issue_cycle + latency
                pending_load_record = None
                pending_store_record = None

            if instruction.dest is not None:
                register_ready[instruction.dest] = complete

            # ---------------- commit ----------------
            commit_ready = max(complete, commit_frontier.cycle)
            commit_cycle = commit_bw.allocate(commit_ready)

            if instruction.is_store:
                pending_store_record = StoreRecord(
                    seq=instruction.seq,
                    address=instruction.address or 0,
                    size=instruction.size,
                    decode_cycle=decode_cycle,
                    addr_ready_cycle=issue_cycle,
                    data_ready_cycle=max(issue_cycle, data_ready),
                    commit_cycle=commit_cycle,
                    locality=Locality.HIGH,
                )
                self.policy.store_issued(pending_store_record)
                squash_penalty = max(squash_penalty, pending_store_record.squash_penalty)
                self.policy.store_committed(pending_store_record)
            elif pending_load_record is not None:
                pending_load_record.commit_cycle = commit_cycle
                commit_cycle += self.policy.load_committed(pending_load_record)

            commit_frontier.advance(commit_cycle)
            last_commit_cycle = max(last_commit_cycle, commit_cycle)
            rob.push(commit_cycle)
            if instruction.is_load:
                load_queue.push(commit_cycle)
            elif instruction.is_store:
                store_queue.push(commit_cycle)

            # ---------------- control / squash handling ----------------
            if instruction.is_branch and instruction.mispredicted:
                resolve_cycle = complete + cfg.branch_mispredict_penalty
                fetch_resume_cycle = max(fetch_resume_cycle, resolve_cycle)
                stats.bump("core.branch_mispredicts")
                exposed = max(0, complete - fetch_cycle)
                wrong_path_estimate += min(cfg.fetch_width * exposed, cfg.rob_size)
            if violation:
                stats.bump("core.violation_squashes")
                fetch_resume_cycle = max(
                    fetch_resume_cycle,
                    complete + cfg.branch_mispredict_penalty + _VIOLATION_EXTRA_PENALTY,
                )
            if squash_penalty:
                fetch_resume_cycle = max(fetch_resume_cycle, issue_cycle + squash_penalty)

        committed = len(trace)
        total_cycles = max(1, last_commit_cycle)
        account_wrong_path(self.policy, wrong_path_estimate, committed, num_loads, num_stores)
        self.policy.finalize(total_cycles, committed)
        stats.bump("core.cycles", total_cycles)
        stats.bump("core.committed_instructions", committed)

        return CoreResult(
            trace_name=trace.name,
            config_name=self.name,
            cycles=total_cycles,
            committed_instructions=committed,
            stats=stats.snapshot(),
        )
