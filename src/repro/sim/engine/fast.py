"""The ``fast`` engine: an optimised, bit-identical simulation drive loop.

The reference per-instruction walks (:meth:`OutOfOrderCore.run`,
:meth:`FMCProcessor.run`) are written for clarity: every structural resource
is an object with methods, every constraint a method call, every
configuration value an attribute chain.  That style costs real time in pure
Python -- profiling shows the per-cycle hot path spending most of its time in
attribute lookups, small-object churn and, above all, the functional cache
warm-up replay that precedes every timed run.

This module re-implements the *same algorithms* with the interpreter in mind:

* **One loop for both processor kinds.**  The FMC is the OoO-64 core (one
  Table 1 column) serving as Cache Processor, plus a Memory Processor that
  only low-locality instructions reach.  A conventional core is that Cache
  Processor without a Memory Processor: :func:`run_fast` drives it with an
  infinite locality threshold, so nothing migrates and the walk is
  :meth:`OutOfOrderCore.run`'s.
* **Columnar drive loop.**  The loop walks the trace's structure-of-arrays
  form (:meth:`~repro.isa.trace.Trace.columns`) -- typed columns of class
  codes, registers, addresses, sizes and flags -- so no per-instruction
  object is ever touched, no source tuple sliced, no attribute chain walked.
  A trace loaded from the binary container drives the loop without a
  single ``Instruction`` being materialised.
* **Lazy region warm-up.**  The functional warm-up replays each region's
  lines, as runs of consecutive line numbers, into fresh caches.  Instead
  of replaying hundreds of thousands of accesses, the loop hands each cache
  level its runs and the cache applies them per set, in closed form, the
  first time the drive loop touches that set (every fill of a fresh,
  lock-free set is then a miss on a distinct line, whose end state each
  replacement policy knows).  A short run touches a few percent of the
  sets, so build plus warm-up costs O(sets touched), and nothing is
  memoised across runs.  Overlapping footprints are replayed, so the state
  is identical in every case (``tests/test_engine_selection.py`` asserts
  equality against :meth:`MemoryHierarchy.warm_up_regions` for every
  timing policy across the paper geometries).
* **Scalar frontier allocators.**  Fetch, commit, migration and per-engine
  issue bandwidth are requested in non-decreasing cycle order, so the
  reference allocator's per-cycle dictionary degenerates to a
  ``(cycle, used)`` pair that jumps straight to the next free cycle.
* **Preallocated ring buffers.**  Occupancy windows (ROB, load/store queues,
  the epoch pool) become fixed-size lists with a wrap index instead of
  deques, and the register scoreboard becomes a flat list indexed by
  architectural register number instead of a dictionary.

The LSQ policies, the memory hierarchy and the statistics registry are the
*same objects* the reference walks drive -- only the loop around them is
rewritten -- and the loop reproduces the reference computations exactly.
``tests/differential/`` asserts the result (every counter, histogram bin,
cycle count and derived float) is bit-identical to ``processor.run(trace)``
across workload families, suites, seeds, fuzzed configurations and fuzzed
core geometries.

The loop also reports per-phase wall time (``build`` / ``warmup`` /
``drive``) to :mod:`repro.common.phases`, which the repository benchmark
(``perfbench/``) and ``repro profile`` read so speed-ups stay attributable.
Building a cache set's warm state on first touch counts towards ``drive``.
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.common import phases
from repro.common.config import DisambiguationModel, FMCConfig
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.fmc.processor import FMCProcessor
from repro.fmc.processor import _WRONG_PATH_CAP as _FMC_WRONG_PATH_CAP
from repro.isa.columns import (
    CODE_BRANCH,
    CODE_FP_ALU,
    CODE_LOAD,
    CODE_STORE,
    FLAG_HAS_LATENCY,
    FLAG_MISPREDICTED,
)
from repro.isa.instruction import NUM_ARCH_REGISTERS
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.ooo_core import (
    _LOCALITY_HISTOGRAM_BIN,
    _LOCALITY_HISTOGRAM_BINS,
    _VIOLATION_EXTRA_PENALTY,
    OutOfOrderCore,
    account_wrong_path,
)
from repro.uarch.result import CoreResult

# ----------------------------------------------------------------------
# Functional cache warm-up, applied per set on first touch
# ----------------------------------------------------------------------


def clear_warm_memo() -> None:
    """Nothing to clear: no warm-up state outlives the hierarchy it warms.

    Cold-start timing harnesses call this next to
    :func:`repro.exp.runner.clear_trace_memo`; each cache builds its sets'
    warm state itself, on first touch (:meth:`SetAssociativeCache.warm_fill`).
    """


def _warm_line_ranges(footprints, cache_config) -> List[Tuple[int, int]]:
    """The (first line, line count) each footprint inserts at this geometry.

    Mirrors the fill arithmetic of
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_up_regions`: a region
    replays its *last* ``min(region lines, cache lines)`` lines, which form a
    run of consecutive line numbers regardless of base-address alignment.
    """
    line_size = cache_config.line_size
    capacity_lines = cache_config.num_lines
    shift = line_size.bit_length() - 1
    ranges = []
    for region in footprints:
        lines_in_region = max(1, region.size_bytes // line_size)
        fill_lines = min(lines_in_region, capacity_lines)
        start = region.base_address + (lines_in_region - fill_lines) * line_size
        ranges.append((start >> shift, fill_lines))
    return ranges


def warm_hierarchy(hierarchy: MemoryHierarchy, regions) -> None:
    """Bring ``hierarchy`` to the post-warm-up state for ``regions``.

    Each level gets the line runs
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_up_regions` replays
    into it, in the same order, and applies them itself
    (:meth:`~repro.memory.cache.SetAssociativeCache.warm_fill`): a set takes
    its share in closed form the first time the drive loop touches it, so
    the cost is O(regions) here plus O(sets touched) during the run.
    """
    footprints = sorted(regions, key=lambda region: region.access_density)
    config = hierarchy.config
    hierarchy.l2.warm_fill(_warm_line_ranges(footprints, config.l2))
    hierarchy.l1.warm_fill(_warm_line_ranges(footprints, config.l1))


# ----------------------------------------------------------------------
# Fast drive loop: one Cache Processor, with or without a Memory Processor
# ----------------------------------------------------------------------


def run_fast(processor: Union[OutOfOrderCore, FMCProcessor], trace: Trace) -> CoreResult:
    """Drive ``processor`` over ``trace`` -- bit-identical to ``processor.run(trace)``.

    An :class:`OutOfOrderCore` is driven as the FMC's Cache Processor without
    a Memory Processor (Table 1 describes both in one column): its locality
    threshold is infinite, so no instruction is low locality, the Memory
    Processor never turns active and nothing migrates.  Its LQ/SQ take the
    HL-LSQ's place and its ROB caps the wrong-path estimate.  The processor
    kind reaches the loop only through these set-up values.
    """
    is_fmc = isinstance(processor, FMCProcessor)
    if is_fmc:
        fmc = processor.config
        elsq = processor.elsq_config
        threshold = elsq.locality_threshold_cycles
        lq_cap = elsq.hl_load_entries
        sq_cap = elsq.hl_store_entries
        wrong_path_cap = _FMC_WRONG_PATH_CAP
        disambiguation = elsq.disambiguation
    else:
        # Nothing migrates, so this FMC's memory-engine values are never read.
        fmc = FMCConfig(cache_processor=processor.config)
        threshold = inf
        lq_cap = processor.config.load_queue_entries
        sq_cap = processor.config.store_queue_entries
        wrong_path_cap = processor.config.rob_size
        disambiguation = DisambiguationModel.FULL
    cp = fmc.cache_processor
    me = fmc.memory_engine
    stats = processor.stats
    policy = processor.policy
    warm_started = perf_counter()
    if trace.regions:
        warm_hierarchy(processor.hierarchy, trace.regions)
    drive_started = perf_counter()
    phases.add("warmup", drive_started - warm_started)

    load_hist = stats.histogram(
        "decode_to_address.loads", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
    )
    store_hist = stats.histogram(
        "decode_to_address.stores", _LOCALITY_HISTOGRAM_BIN, _LOCALITY_HISTOGRAM_BINS
    )
    record_load_hist = load_hist.record
    record_store_hist = store_hist.record
    bump = stats.bump
    counts = stats.counts
    load_issued = policy.load_issued
    store_issued = policy.store_issued
    load_committed = policy.load_committed
    store_committed = policy.store_committed
    epoch_opened = policy.epoch_opened
    epoch_committed = policy.epoch_committed

    fetch_width = cp.fetch_width
    issue_width = cp.issue_width
    commit_width = cp.commit_width
    ports_width = processor.hierarchy.config.cache_ports
    decode_latency = cp.decode_latency
    branch_latency = cp.branch_latency
    int_alu_latency = cp.int_alu_latency
    fp_alu_latency = cp.fp_alu_latency
    mispredict_penalty = cp.branch_mispredict_penalty
    rob_cap = cp.rob_size
    me_max_instructions = me.max_instructions
    me_max_loads = me.max_loads
    me_max_stores = me.max_stores
    me_issue_width = me.issue_width
    cp_to_mp_latency = fmc.interconnect.cp_to_mp_latency
    restricts_sac = disambiguation.restricts_store_address_calculation
    restricts_lac = disambiguation.restricts_load_address_calculation

    columns = trace.columns()
    iclass_col = columns.iclass
    dest_col = columns.dest
    src0_col = columns.src0
    src1_col = columns.src1
    src2_col = columns.src2
    src3_col = columns.src3
    addr_col = columns.address
    size_col = columns.size
    flags_col = columns.flags
    latency_col = columns.latency

    LOAD = CODE_LOAD
    STORE = CODE_STORE
    BRANCH = CODE_BRANCH
    FP_ALU = CODE_FP_ALU
    MISPREDICTED = FLAG_MISPREDICTED
    HAS_LATENCY = FLAG_HAS_LATENCY
    HIGH = Locality.HIGH
    LOW = Locality.LOW

    # Scalar frontier allocators (fetch / commit / migration are monotonic).
    fetch_cur, fetch_used = -1, 0
    commit_cur, commit_used = -1, 0
    migrate_cur, migrate_used = -1, 0
    # Demand-keyed allocators.
    issue_used: Dict[int, int] = {}
    ports_used: Dict[int, int] = {}
    #: epoch id -> [current issue cycle, slots used, issue frontier] -- each
    #: memory engine's issue bandwidth is requested in non-decreasing order.
    epoch_issue: Dict[int, List[int]] = {}
    # Preallocated ring buffers replacing the occupancy-window deques.
    rob_buf = [0] * rob_cap
    rob_n = rob_i = 0
    lq_buf = [0] * lq_cap
    lq_n = lq_i = 0
    sq_buf = [0] * sq_cap
    sq_n = sq_i = 0
    pool_cap = fmc.num_memory_engines
    pool_buf = [0] * pool_cap
    pool_n = pool_i = 0

    regs = [0] * NUM_ARCH_REGISTERS
    fetch_frontier = 0
    commit_frontier = 0
    migration_frontier = 0
    fetch_resume_cycle = 0
    migration_block_until = 0
    mp_active_until = 0
    ll_active_cycles = 0
    epoch_live_cycle_sum = 0
    next_epoch_id = 0
    # Current epoch book, inlined into scalars (None id = no open epoch).
    cur_epoch_id: Optional[int] = None
    cur_open = 0
    cur_instructions = 0
    cur_loads = 0
    cur_stores = 0
    cur_last_commit = 0
    num_loads = 0
    num_stores = 0
    migrated_instructions = 0  # the most frequent event: added once, at the end
    wrong_path_estimate = 0.0
    last_commit_cycle = 0

    for seq in range(len(iclass_col)):
        code = iclass_col[seq]
        is_load = code == LOAD
        is_store = code == STORE

        # ---------------- fetch / decode ----------------
        desired = fetch_resume_cycle
        if fetch_frontier > desired:
            desired = fetch_frontier
        constraint = rob_buf[rob_i] if rob_n == rob_cap else 0
        if constraint > desired:
            desired = constraint
        if is_load:
            constraint = lq_buf[lq_i] if lq_n == lq_cap else 0
            if constraint > desired:
                desired = constraint
        elif is_store:
            constraint = sq_buf[sq_i] if sq_n == sq_cap else 0
            if constraint > desired:
                desired = constraint
        if desired > fetch_cur:
            fetch_cur, fetch_used = desired, 1
        elif fetch_used < fetch_width:
            fetch_used += 1
        else:
            fetch_cur += 1
            fetch_used = 1
        fetch_cycle = fetch_cur
        fetch_frontier = fetch_cycle
        decode_cycle = fetch_cycle + decode_latency

        # ---------------- operand readiness ----------------
        # Sources are left-packed columns with -1 padding.  A store's last
        # source is its data operand; a single-source store uses that source
        # as both address and data (matching ``srcs[:-1] or srcs``).
        s0 = src0_col[seq]
        addr_ready = decode_cycle
        if is_store:
            s1 = src1_col[seq]
            if s1 < 0:
                if s0 >= 0:
                    ready = regs[s0]
                    if ready > addr_ready:
                        addr_ready = ready
                data_ready = addr_ready
            else:
                ready = regs[s0]
                if ready > addr_ready:
                    addr_ready = ready
                s2 = src2_col[seq]
                if s2 < 0:
                    data_src = s1
                else:
                    ready = regs[s1]
                    if ready > addr_ready:
                        addr_ready = ready
                    s3 = src3_col[seq]
                    if s3 < 0:
                        data_src = s2
                    else:
                        ready = regs[s2]
                        if ready > addr_ready:
                            addr_ready = ready
                        data_src = s3
                data_ready = regs[data_src]
                if data_ready < addr_ready:
                    data_ready = addr_ready
        else:
            if s0 >= 0:
                ready = regs[s0]
                if ready > addr_ready:
                    addr_ready = ready
                s1 = src1_col[seq]
                if s1 >= 0:
                    ready = regs[s1]
                    if ready > addr_ready:
                        addr_ready = ready
                    s2 = src2_col[seq]
                    if s2 >= 0:
                        ready = regs[s2]
                        if ready > addr_ready:
                            addr_ready = ready
                        s3 = src3_col[seq]
                        if s3 >= 0:
                            ready = regs[s3]
                            if ready > addr_ready:
                                addr_ready = ready
            data_ready = addr_ready

        # ---------------- locality classification ----------------
        low_locality = addr_ready - decode_cycle > threshold
        migrates = decode_cycle < mp_active_until or low_locality

        # ---------------- epoch assignment / migration ----------------
        epoch_id: Optional[int] = None
        migration_cycle: Optional[int] = None
        if migrates:
            if (
                cur_epoch_id is None
                or cur_instructions >= me_max_instructions
                or (is_load and cur_loads >= me_max_loads)
                or (is_store and cur_stores >= me_max_stores)
            ):
                if cur_epoch_id is not None:
                    epoch_commit = cur_last_commit if cur_last_commit >= cur_open else cur_open
                    if pool_n == pool_cap:
                        pool_buf[pool_i] = epoch_commit
                        pool_i += 1
                        if pool_i == pool_cap:
                            pool_i = 0
                    else:
                        pool_buf[pool_n] = epoch_commit
                        pool_n += 1
                    epoch_committed(cur_epoch_id, epoch_commit)
                    epoch_live_cycle_sum += epoch_commit - cur_open
                pool_ready = pool_buf[pool_i] if pool_n == pool_cap else 0
                if pool_ready > decode_cycle:
                    bump("fmc.migration_stall_cycles", pool_ready - decode_cycle)
                    counts["fmc.migration_stalls"] += 1
                cur_epoch_id = next_epoch_id
                cur_open = decode_cycle if decode_cycle >= pool_ready else pool_ready
                cur_instructions = 0
                cur_loads = 0
                cur_stores = 0
                cur_last_commit = 0
                epoch_opened(cur_epoch_id, cur_open)
                next_epoch_id += 1
            epoch_id = cur_epoch_id
            migration_desired = decode_cycle + cp_to_mp_latency
            if migration_frontier > migration_desired:
                migration_desired = migration_frontier
            if cur_open > migration_desired:
                migration_desired = cur_open
            if (is_load or is_store) and migration_block_until > migration_desired:
                migration_desired = migration_block_until
            if migration_desired > migrate_cur:
                migrate_cur, migrate_used = migration_desired, 1
            elif migrate_used < fetch_width:
                migrate_used += 1
            else:
                migrate_cur += 1
                migrate_used = 1
            migration_cycle = migrate_cur
            migration_frontier = migration_cycle
            cur_instructions += 1
            if is_load:
                cur_loads += 1
            elif is_store:
                cur_stores += 1
            migrated_instructions += 1

            if low_locality and is_store and restricts_sac:
                if addr_ready > migration_block_until:
                    migration_block_until = addr_ready
                counts["fmc.rsac_migration_blocks"] += 1
            if low_locality and is_load and restricts_lac:
                if addr_ready > migration_block_until:
                    migration_block_until = addr_ready
                counts["fmc.rlac_migration_blocks"] += 1

        # ---------------- issue and execute ----------------
        violation = False
        squash_penalty = 0

        # A low-locality instruction always migrates, so it has an epoch.
        if low_locality:
            engine = epoch_issue.get(epoch_id)
            if engine is None:
                engine = [-1, 0, 0]
                epoch_issue[epoch_id] = engine
            base = addr_ready
            migration_base = migration_cycle or addr_ready
            if migration_base > base:
                base = migration_base
            if engine[2] > base:
                base = engine[2]
            if base > engine[0]:
                engine[0] = base
                engine[1] = 1
            elif engine[1] < me_issue_width:
                engine[1] += 1
            else:
                engine[0] += 1
                engine[1] = 1
            issue_cycle = engine[0]
            engine[2] = issue_cycle
        else:
            cycle = addr_ready
            while issue_used.get(cycle, 0) >= issue_width:
                cycle += 1
            issue_used[cycle] = issue_used.get(cycle, 0) + 1
            issue_cycle = cycle
            if is_load:
                while ports_used.get(cycle, 0) >= ports_width:
                    cycle += 1
                ports_used[cycle] = ports_used.get(cycle, 0) + 1
                issue_cycle = cycle

        if is_load:
            num_loads += 1
            record_load_hist(issue_cycle - decode_cycle)
            load_record = LoadRecord(
                seq=seq,
                address=addr_col[seq],
                size=size_col[seq],
                decode_cycle=decode_cycle,
                issue_cycle=issue_cycle,
                locality=LOW if low_locality else HIGH,
                epoch_id=epoch_id,
                migration_cycle=migration_cycle,
            )
            latency = load_issued(load_record)
            complete = issue_cycle + (latency if latency > 1 else 1)
            violation = load_record.violation
            squash_penalty = load_record.squash_penalty
        elif is_store:
            num_stores += 1
            record_store_hist(issue_cycle - decode_cycle)
            complete = issue_cycle if issue_cycle >= data_ready else data_ready
        elif code == BRANCH:
            complete = issue_cycle + branch_latency
        else:
            if flags_col[seq] & HAS_LATENCY:
                latency = latency_col[seq]
            else:
                latency = fp_alu_latency if code == FP_ALU else int_alu_latency
            complete = issue_cycle + latency

        dest = dest_col[seq]
        if dest >= 0:
            regs[dest] = complete

        # ---------------- commit ----------------
        commit_ready = complete if complete >= commit_frontier else commit_frontier
        if commit_ready > commit_cur:
            commit_cur, commit_used = commit_ready, 1
        elif commit_used < commit_width:
            commit_used += 1
        else:
            commit_cur += 1
            commit_used = 1
        commit_cycle = commit_cur

        if is_store:
            store_record = StoreRecord(
                seq=seq,
                address=addr_col[seq],
                size=size_col[seq],
                decode_cycle=decode_cycle,
                addr_ready_cycle=issue_cycle,
                data_ready_cycle=issue_cycle if issue_cycle >= data_ready else data_ready,
                commit_cycle=commit_cycle,
                locality=LOW if low_locality else HIGH,
                epoch_id=epoch_id,
                migration_cycle=migration_cycle,
            )
            store_issued(store_record)
            if store_record.squash_penalty > squash_penalty:
                squash_penalty = store_record.squash_penalty
            if store_record.insertion_stall:
                blocked = issue_cycle + store_record.insertion_stall
                if blocked > migration_block_until:
                    migration_block_until = blocked
            store_committed(store_record)
        elif is_load:
            load_record.commit_cycle = commit_cycle
            commit_cycle += load_committed(load_record)

        if commit_cycle > commit_frontier:
            commit_frontier = commit_cycle
        if commit_cycle > last_commit_cycle:
            last_commit_cycle = commit_cycle

        cp_leave_cycle = migration_cycle if migrates else commit_cycle
        if rob_n == rob_cap:
            rob_buf[rob_i] = cp_leave_cycle
            rob_i += 1
            if rob_i == rob_cap:
                rob_i = 0
        else:
            rob_buf[rob_n] = cp_leave_cycle
            rob_n += 1
        if is_load:
            if lq_n == lq_cap:
                lq_buf[lq_i] = cp_leave_cycle
                lq_i += 1
                if lq_i == lq_cap:
                    lq_i = 0
            else:
                lq_buf[lq_n] = cp_leave_cycle
                lq_n += 1
        elif is_store:
            if sq_n == sq_cap:
                sq_buf[sq_i] = cp_leave_cycle
                sq_i += 1
                if sq_i == sq_cap:
                    sq_i = 0
            else:
                sq_buf[sq_n] = cp_leave_cycle
                sq_n += 1

        # ---------------- Memory Processor activity ----------------
        if migrates:
            if commit_cycle > cur_last_commit:
                cur_last_commit = commit_cycle
            interval_start = (
                migration_cycle if migration_cycle >= mp_active_until else mp_active_until
            )
            if commit_cycle > interval_start:
                ll_active_cycles += commit_cycle - interval_start
                mp_active_until = commit_cycle

        # ---------------- control / squash handling ----------------
        if code == BRANCH and flags_col[seq] & MISPREDICTED:
            resolve_cycle = complete + mispredict_penalty
            if resolve_cycle > fetch_resume_cycle:
                fetch_resume_cycle = resolve_cycle
            counts["core.branch_mispredicts"] += 1
            exposed = complete - fetch_cycle
            if exposed < 0:
                exposed = 0
            wrong_path = fetch_width * exposed
            if wrong_path > wrong_path_cap:
                wrong_path = wrong_path_cap
            wrong_path_estimate += wrong_path
        if violation:
            counts["core.violation_squashes"] += 1
            resume = complete + mispredict_penalty + _VIOLATION_EXTRA_PENALTY
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume
        if squash_penalty:
            resume = issue_cycle + squash_penalty
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume

    if cur_epoch_id is not None:
        epoch_commit = cur_last_commit if cur_last_commit >= cur_open else cur_open
        if pool_n == pool_cap:
            pool_buf[pool_i] = epoch_commit
            pool_i += 1
            if pool_i == pool_cap:
                pool_i = 0
        else:
            pool_buf[pool_n] = epoch_commit
            pool_n += 1
        epoch_committed(cur_epoch_id, epoch_commit)
        epoch_live_cycle_sum += epoch_commit - cur_open

    committed = len(trace)
    total_cycles = max(1, last_commit_cycle)
    account_wrong_path(policy, wrong_path_estimate, committed, num_loads, num_stores)
    policy.finalize(total_cycles, committed)
    bump("core.cycles", total_cycles)
    bump("core.committed_instructions", committed)
    # Like a per-migration bump, the counter exists only if something migrated.
    if migrated_instructions:
        bump("fmc.migrated_instructions", migrated_instructions)
    # Only an FMC reports its Memory Processor: even a zero counter would
    # change a conventional core's snapshot.
    memory_processor = {}
    if is_fmc:
        ll_active = min(ll_active_cycles, total_cycles)
        bump("fmc.ll_active_cycles", ll_active)
        bump("fmc.epochs_allocated", next_epoch_id)
        memory_processor = dict(
            high_locality_fraction=1.0 - ll_active / total_cycles,
            mean_allocated_epochs=(
                epoch_live_cycle_sum / ll_active_cycles if ll_active_cycles > 0 else 0.0
            ),
            extra={"epochs_opened": float(next_epoch_id)},
        )
    phases.add("drive", perf_counter() - drive_started)

    return CoreResult(
        trace_name=trace.name,
        config_name=processor.name,
        cycles=total_cycles,
        committed_instructions=committed,
        stats=stats.snapshot(),
        **memory_processor,
    )


class FastEngine:
    """Optimised columnar drive loop over the processor objects."""

    name = "fast"

    def run(self, machine, trace: Trace) -> CoreResult:
        """Simulate ``trace`` on ``machine`` with the optimised loop."""
        build_started = perf_counter()
        processor = machine.build()
        phases.add("build", perf_counter() - build_started)
        return run_fast(processor, trace)
