"""The ``fast`` engine: an optimised, bit-identical simulation drive loop.

The reference per-instruction walks (:meth:`OutOfOrderCore.run`,
:meth:`FMCProcessor.run`) are written for clarity: every structural resource
is an object with methods, every constraint a method call, every
configuration value an attribute chain.  That style costs real time in pure
Python -- profiling shows the per-cycle hot path spending most of its time in
attribute lookups, small-object churn and, above all, the functional cache
warm-up replay that precedes every timed run.

This module re-implements the *same algorithms* with the interpreter in mind:

* **Columnar drive loop.**  The loop walks the trace's structure-of-arrays
  form (:meth:`~repro.isa.trace.Trace.columns`) -- typed columns of class
  codes, registers, addresses, sizes and flags -- so no per-instruction
  object is ever touched, no source tuple sliced, no attribute chain walked.
  A trace loaded from the binary container or handed over shared memory
  drives the loop without a single ``Instruction`` being materialised.
* **Analytic region warm-up.**  The functional warm-up's final tag/LRU state
  is a pure function of the trace's region footprints and the cache
  geometry.  Because the replay inserts consecutive, non-overlapping lines
  into fresh caches, that state has a closed form (each insertion lands in a
  rotating way; the final LRU stack is the tail of the insertion sequence),
  which is computed directly -- per (regions, geometry) pair, memoised per
  process -- instead of replaying hundreds of thousands of accesses.
  Overlapping footprints fall back to the reference replay, so the captured
  state is identical in every case (``tests/test_engine_selection.py``
  asserts equality against :meth:`MemoryHierarchy.warm_up_regions` across
  all paper geometries).
* **Scalar frontier allocators.**  Fetch, commit, migration and per-engine
  issue bandwidth are requested in non-decreasing cycle order, so the
  reference allocator's per-cycle dictionary degenerates to a
  ``(cycle, used)`` pair that jumps straight to the next free cycle.
* **Preallocated ring buffers.**  Occupancy windows (ROB, load/store queues,
  the epoch pool) become fixed-size lists with a wrap index instead of
  deques, and the register scoreboard becomes a flat list indexed by
  architectural register number instead of a dictionary.

The LSQ policies, the memory hierarchy and the statistics registry are the
*same objects* the reference engine drives -- only the loop around them is
rewritten -- and the loop reproduces the reference computations expression
for expression.  ``tests/differential/`` asserts the result (every counter,
histogram bin, cycle count and derived float) is bit-identical to the
``reference`` engine across workload families, suites, seeds and fuzzed
configurations.

The loops also report per-phase wall time (``build`` / ``warmup`` /
``drive``) to :mod:`repro.common.phases`, which the repository benchmark
(``perfbench/``) and ``repro profile`` read so speed-ups stay attributable.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.common import phases
from repro.common.errors import TraceError
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
)
from repro.uarch.result import CoreResult

# ----------------------------------------------------------------------
# Memoised functional cache warm-up
# ----------------------------------------------------------------------

#: (regions, l1 config, l2 config) -> captured post-warm-up cache state.
#: The warm-up never locks lines and records no statistics, so tags plus the
#: replacement policy's own capture() snapshot fully describe the state.  The
#: cache configs in the key carry ``replacement_policy``, so each policy gets
#: its own entry.
_WARM_MEMO: Dict[Tuple, Tuple] = {}
_WARM_MEMO_LIMIT = 32


def clear_warm_memo() -> None:
    """Drop the per-process warm-up memo.

    Cold-start timing harnesses call this (next to
    :func:`repro.exp.runner.clear_trace_memo`) so a measured run pays the
    full warm-up computation instead of reusing a previous run's state.
    """
    _WARM_MEMO.clear()


def _capture_cache(cache) -> Tuple:
    return (
        tuple(tuple(row) for row in cache._tags),
        tuple(policy.capture() for policy in cache._lru),
    )


def _restore_cache(cache, state: Tuple) -> None:
    tags, snapshots = state
    cache._tags = [list(row) for row in tags]
    policies = cache._lru
    for index, snapshot in enumerate(snapshots):
        policies[index].restore(snapshot)


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


def _warm_cache_state(footprints, cache_config) -> Optional[Tuple]:
    """Compute one level's post-warm-up (tags, LRU orders) in closed form.

    The warm-up inserts each footprint's lines in consecutive order into a
    fresh, lock-free cache.  When no line is inserted twice, the replay has
    a closed form: the ``j``-th insertion into a set lands in way
    ``assoc - 1 - (j % assoc)`` (a fresh LRU stack hands out ways from the
    top down, then cycles), so the final tags and recency stack of every set
    are determined by the tail of its insertion sequence -- and each set's
    insertion sequence is a concatenation of arithmetic progressions (one
    per footprint, stride ``num_sets``), so the tail is computed directly.

    Returns ``None`` when footprints' line ranges overlap (re-inserted lines
    would hit instead of allocate) or when the level runs a non-LRU
    replacement policy (the closed form encodes the LRU stack's way-handout
    order); the caller then falls back to the reference replay, which is
    exact for every policy.
    """
    if cache_config.replacement_policy != "lru":
        return None
    ranges = _warm_line_ranges(footprints, cache_config)
    spans = sorted((first, first + count) for first, count in ranges)
    for (_a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        if b_start < a_end:
            return None

    num_sets = cache_config.num_sets
    assoc = cache_config.associativity
    num_ranges = len(ranges)
    tags: List[Tuple] = []
    orders: List[Tuple] = []
    counts = [0] * num_ranges
    for set_index in range(num_sets):
        inserted = 0
        for index in range(num_ranges):
            first_line, fill = ranges[index]
            offset = (set_index - first_line) % num_sets
            if offset < fill:
                count = (fill - offset - 1) // num_sets + 1
            else:
                count = 0
            counts[index] = count
            inserted += count
        want = assoc if inserted >= assoc else inserted
        # The last `want` lines inserted into this set, newest first.
        tail: List[int] = []
        for index in range(num_ranges - 1, -1, -1):
            count = counts[index]
            if not count:
                continue
            if len(tail) >= want:
                break
            first_line, _fill = ranges[index]
            offset = (set_index - first_line) % num_sets
            newest = first_line + offset + (count - 1) * num_sets
            take = want - len(tail)
            if take > count:
                take = count
            for step in range(take):
                tail.append(newest - step * num_sets)
        row: List[Optional[int]] = [None] * assoc
        order: List[int] = []
        for position in range(want):
            insertion = inserted - 1 - position
            way = assoc - 1 - (insertion % assoc)
            order.append(way)
            row[way] = tail[position]
        if inserted < assoc:
            # Untouched ways keep their original (ascending) recency order.
            order.extend(range(assoc - inserted))
        tags.append(tuple(row))
        orders.append(tuple(order))
    return tuple(tags), tuple(orders)


def _compute_warm_state(hierarchy: MemoryHierarchy, regions) -> Tuple:
    """The memoised (l1 state, l2 state) pair for one (regions, geometry) key."""
    footprints = sorted(regions, key=lambda region: region.access_density)
    config = hierarchy.config
    l1_state = _warm_cache_state(footprints, config.l1)
    l2_state = _warm_cache_state(footprints, config.l2)
    if l1_state is not None and l2_state is not None:
        return l1_state, l2_state
    # Overlapping footprints: replay the reference warm-up into a scratch
    # hierarchy and capture its state, which is identical by construction.
    scratch = MemoryHierarchy(config)
    scratch.warm_up_regions(regions)
    return _capture_cache(scratch.l1), _capture_cache(scratch.l2)


def warm_hierarchy(hierarchy: MemoryHierarchy, regions) -> None:
    """Bring ``hierarchy`` to the post-warm-up state for ``regions``.

    The first request for a (regions, geometry) pair computes the closed-form
    warm state (or, for overlapping footprints, captures a reference replay)
    and memoises it; every request restores the state into the fresh
    hierarchy as a plain array copy, skipping the replay entirely.
    """
    key = (regions, hierarchy.config.l1, hierarchy.config.l2)
    state = _WARM_MEMO.get(key)
    if state is None:
        state = _compute_warm_state(hierarchy, regions)
        if len(_WARM_MEMO) >= _WARM_MEMO_LIMIT:
            _WARM_MEMO.clear()
        _WARM_MEMO[key] = state
    _restore_cache(hierarchy.l1, state[0])
    _restore_cache(hierarchy.l2, state[1])


# ----------------------------------------------------------------------
# Fast drive loop: conventional out-of-order core
# ----------------------------------------------------------------------


def run_ooo_fast(core: OutOfOrderCore, trace: Trace) -> CoreResult:
    """Drive ``core`` over ``trace`` -- bit-identical to ``core.run(trace)``."""
    cfg = core.config
    stats = core.stats
    policy = core.policy
    warm_started = perf_counter()
    if core.warm_caches and trace.regions:
        warm_hierarchy(core.hierarchy, trace.regions)
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
    load_issued = policy.load_issued
    store_issued = policy.store_issued
    load_committed = policy.load_committed
    store_committed = policy.store_committed

    fetch_width = cfg.fetch_width
    issue_width = cfg.issue_width
    commit_width = cfg.commit_width
    ports_width = core.hierarchy.config.cache_ports
    decode_latency = cfg.decode_latency
    branch_latency = cfg.branch_latency
    int_alu_latency = cfg.int_alu_latency
    fp_alu_latency = cfg.fp_alu_latency
    mispredict_penalty = cfg.branch_mispredict_penalty
    rob_cap = cfg.rob_size

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

    # Scalar frontier allocators (fetch/commit requests are non-decreasing).
    fetch_cur, fetch_used = -1, 0
    commit_cur, commit_used = -1, 0
    # Demand-keyed allocators (issue order follows operand readiness).
    issue_used: Dict[int, int] = {}
    ports_used: Dict[int, int] = {}
    # Preallocated ring buffers replacing the occupancy-window deques.
    rob_buf = [0] * rob_cap
    rob_n = rob_i = 0
    lq_cap = cfg.load_queue_entries
    lq_buf = [0] * lq_cap
    lq_n = lq_i = 0
    sq_cap = cfg.store_queue_entries
    sq_buf = [0] * sq_cap
    sq_n = sq_i = 0

    regs = [0] * NUM_ARCH_REGISTERS
    fetch_frontier = 0
    commit_frontier = 0
    fetch_resume_cycle = 0
    num_loads = 0
    num_stores = 0
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

        # ---------------- issue and execute ----------------
        violation = False
        squash_penalty = 0
        cycle = addr_ready
        while issue_used.get(cycle, 0) >= issue_width:
            cycle += 1
        issue_used[cycle] = issue_used.get(cycle, 0) + 1
        issue_cycle = cycle
        pending_load_record: Optional[LoadRecord] = None
        if is_load:
            num_loads += 1
            cycle = issue_cycle
            while ports_used.get(cycle, 0) >= ports_width:
                cycle += 1
            ports_used[cycle] = ports_used.get(cycle, 0) + 1
            issue_cycle = cycle
            record_load_hist(issue_cycle - decode_cycle)
            pending_load_record = LoadRecord(
                seq=seq,
                address=addr_col[seq],
                size=size_col[seq],
                decode_cycle=decode_cycle,
                issue_cycle=issue_cycle,
                locality=HIGH,
            )
            outcome = load_issued(pending_load_record)
            latency = outcome.latency
            complete = issue_cycle + (latency if latency > 1 else 1)
            violation = outcome.violation
            squash_penalty = outcome.squash_penalty
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
                locality=HIGH,
            )
            store_outcome = store_issued(store_record)
            if store_outcome.squash_penalty > squash_penalty:
                squash_penalty = store_outcome.squash_penalty
            store_committed(store_record)
        elif pending_load_record is not None:
            pending_load_record.commit_cycle = commit_cycle
            commit_extra = load_committed(pending_load_record)
            if commit_extra.extra_latency:
                commit_cycle += commit_extra.extra_latency

        if commit_cycle > commit_frontier:
            commit_frontier = commit_cycle
        if commit_cycle > last_commit_cycle:
            last_commit_cycle = commit_cycle
        if rob_n == rob_cap:
            rob_buf[rob_i] = commit_cycle
            rob_i += 1
            if rob_i == rob_cap:
                rob_i = 0
        else:
            rob_buf[rob_n] = commit_cycle
            rob_n += 1
        if is_load:
            if lq_n == lq_cap:
                lq_buf[lq_i] = commit_cycle
                lq_i += 1
                if lq_i == lq_cap:
                    lq_i = 0
            else:
                lq_buf[lq_n] = commit_cycle
                lq_n += 1
        elif is_store:
            if sq_n == sq_cap:
                sq_buf[sq_i] = commit_cycle
                sq_i += 1
                if sq_i == sq_cap:
                    sq_i = 0
            else:
                sq_buf[sq_n] = commit_cycle
                sq_n += 1

        # ---------------- control / squash handling ----------------
        if code == BRANCH and flags_col[seq] & MISPREDICTED:
            resolve_cycle = complete + mispredict_penalty
            if resolve_cycle > fetch_resume_cycle:
                fetch_resume_cycle = resolve_cycle
            bump("core.branch_mispredicts")
            exposed = complete - fetch_cycle
            if exposed < 0:
                exposed = 0
            wrong_path = fetch_width * exposed
            if wrong_path > rob_cap:
                wrong_path = rob_cap
            wrong_path_estimate += wrong_path
        if violation:
            bump("core.violation_squashes")
            resume = complete + mispredict_penalty + _VIOLATION_EXTRA_PENALTY
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume
        if squash_penalty:
            resume = issue_cycle + squash_penalty
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume

    committed = len(trace)
    total_cycles = max(1, last_commit_cycle)
    core._account_wrong_path(wrong_path_estimate, committed, num_loads, num_stores)
    policy.finalize(total_cycles, committed)
    stats.counter("core.cycles").add(total_cycles)
    stats.counter("core.committed_instructions").add(committed)
    phases.add("drive", perf_counter() - drive_started)

    return CoreResult(
        trace_name=trace.name,
        config_name=core.name,
        cycles=total_cycles,
        committed_instructions=committed,
        stats=stats.snapshot(),
    )


# ----------------------------------------------------------------------
# Fast drive loop: FMC large-window processor
# ----------------------------------------------------------------------


def run_fmc_fast(processor: FMCProcessor, trace: Trace) -> CoreResult:
    """Drive ``processor`` over ``trace`` -- bit-identical to ``processor.run``."""
    cp = processor.config.cache_processor
    me = processor.config.memory_engine
    stats = processor.stats
    policy = processor.policy
    threshold = processor.elsq_config.locality_threshold_cycles
    warm_started = perf_counter()
    if processor.warm_caches and trace.regions:
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
    counter = stats.counter
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
    cp_to_mp_latency = processor.config.interconnect.cp_to_mp_latency
    disambiguation = processor.elsq_config.disambiguation
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
    cp_issue_used: Dict[int, int] = {}
    ports_used: Dict[int, int] = {}
    #: epoch id -> [current issue cycle, slots used, issue frontier] -- each
    #: memory engine's issue bandwidth is requested in non-decreasing order.
    epoch_issue: Dict[int, List[int]] = {}
    # Preallocated ring buffers.
    rob_buf = [0] * rob_cap
    rob_n = rob_i = 0
    hl_lq_cap = processor.elsq_config.hl_load_entries
    hl_lq_buf = [0] * hl_lq_cap
    hl_lq_n = hl_lq_i = 0
    hl_sq_cap = processor.elsq_config.hl_store_entries
    hl_sq_buf = [0] * hl_sq_cap
    hl_sq_n = hl_sq_i = 0
    pool_cap = processor.config.num_memory_engines
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
            constraint = hl_lq_buf[hl_lq_i] if hl_lq_n == hl_lq_cap else 0
            if constraint > desired:
                desired = constraint
        elif is_store:
            constraint = hl_sq_buf[hl_sq_i] if hl_sq_n == hl_sq_cap else 0
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
        # Same left-packed source convention as the conventional loop.
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
                    counter("fmc.migration_stall_cycles").add(pool_ready - decode_cycle)
                    bump("fmc.migration_stalls")
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
            bump("fmc.migrated_instructions")

            if low_locality and is_store and restricts_sac:
                if addr_ready > migration_block_until:
                    migration_block_until = addr_ready
                bump("fmc.rsac_migration_blocks")
            if low_locality and is_load and restricts_lac:
                if addr_ready > migration_block_until:
                    migration_block_until = addr_ready
                bump("fmc.rlac_migration_blocks")

        # ---------------- issue and execute ----------------
        violation = False
        squash_penalty = 0
        insertion_stall = 0
        pending_load_record: Optional[LoadRecord] = None

        if low_locality and epoch_id is not None:
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
            while cp_issue_used.get(cycle, 0) >= issue_width:
                cycle += 1
            cp_issue_used[cycle] = cp_issue_used.get(cycle, 0) + 1
            issue_cycle = cycle
            if is_load:
                cycle = issue_cycle
                while ports_used.get(cycle, 0) >= ports_width:
                    cycle += 1
                ports_used[cycle] = ports_used.get(cycle, 0) + 1
                issue_cycle = cycle

        if is_load:
            num_loads += 1
            record_load_hist(issue_cycle - decode_cycle)
            pending_load_record = LoadRecord(
                seq=seq,
                address=addr_col[seq],
                size=size_col[seq],
                decode_cycle=decode_cycle,
                issue_cycle=issue_cycle,
                locality=LOW if low_locality else HIGH,
                epoch_id=epoch_id,
                migration_cycle=migration_cycle,
            )
            outcome = load_issued(pending_load_record)
            latency = outcome.latency
            complete = issue_cycle + (latency if latency > 1 else 1)
            violation = outcome.violation
            squash_penalty = outcome.squash_penalty
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
            store_outcome = store_issued(store_record)
            if store_outcome.squash_penalty > squash_penalty:
                squash_penalty = store_outcome.squash_penalty
            insertion_stall = store_outcome.insertion_stall
            store_committed(store_record)
        elif pending_load_record is not None:
            pending_load_record.commit_cycle = commit_cycle
            commit_extra = load_committed(pending_load_record)
            if commit_extra.extra_latency:
                commit_cycle += commit_extra.extra_latency

        if commit_cycle > commit_frontier:
            commit_frontier = commit_cycle
        if commit_cycle > last_commit_cycle:
            last_commit_cycle = commit_cycle

        cp_leave_cycle = migration_cycle if migration_cycle is not None else commit_cycle
        if rob_n == rob_cap:
            rob_buf[rob_i] = cp_leave_cycle
            rob_i += 1
            if rob_i == rob_cap:
                rob_i = 0
        else:
            rob_buf[rob_n] = cp_leave_cycle
            rob_n += 1
        if is_load:
            if hl_lq_n == hl_lq_cap:
                hl_lq_buf[hl_lq_i] = cp_leave_cycle
                hl_lq_i += 1
                if hl_lq_i == hl_lq_cap:
                    hl_lq_i = 0
            else:
                hl_lq_buf[hl_lq_n] = cp_leave_cycle
                hl_lq_n += 1
        elif is_store:
            if hl_sq_n == hl_sq_cap:
                hl_sq_buf[hl_sq_i] = cp_leave_cycle
                hl_sq_i += 1
                if hl_sq_i == hl_sq_cap:
                    hl_sq_i = 0
            else:
                hl_sq_buf[hl_sq_n] = cp_leave_cycle
                hl_sq_n += 1

        if cur_epoch_id is not None and epoch_id == cur_epoch_id:
            if commit_cycle > cur_last_commit:
                cur_last_commit = commit_cycle

        # ---------------- Memory Processor activity ----------------
        if migrates and migration_cycle is not None:
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
            bump("core.branch_mispredicts")
            exposed = complete - fetch_cycle
            if exposed < 0:
                exposed = 0
            wrong_path = fetch_width * exposed
            if wrong_path > _FMC_WRONG_PATH_CAP:
                wrong_path = _FMC_WRONG_PATH_CAP
            wrong_path_estimate += wrong_path
        if violation:
            bump("core.violation_squashes")
            resume = complete + mispredict_penalty + _VIOLATION_EXTRA_PENALTY
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume
        if squash_penalty:
            resume = issue_cycle + squash_penalty
            if resume > fetch_resume_cycle:
                fetch_resume_cycle = resume
        if insertion_stall:
            blocked = issue_cycle + insertion_stall
            if blocked > migration_block_until:
                migration_block_until = blocked

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
    processor._account_wrong_path(wrong_path_estimate, committed, num_loads, num_stores)
    policy.finalize(total_cycles, committed)
    stats.counter("core.cycles").add(total_cycles)
    stats.counter("core.committed_instructions").add(committed)
    stats.counter("fmc.ll_active_cycles").add(min(ll_active_cycles, total_cycles))
    stats.counter("fmc.epochs_allocated").add(next_epoch_id)

    high_locality_fraction = 1.0 - min(ll_active_cycles, total_cycles) / total_cycles
    mean_allocated_epochs = (
        epoch_live_cycle_sum / ll_active_cycles if ll_active_cycles > 0 else 0.0
    )
    phases.add("drive", perf_counter() - drive_started)

    return CoreResult(
        trace_name=trace.name,
        config_name=processor.name,
        cycles=total_cycles,
        committed_instructions=committed,
        stats=stats.snapshot(),
        high_locality_fraction=high_locality_fraction,
        mean_allocated_epochs=mean_allocated_epochs,
        extra={"epochs_opened": float(next_epoch_id)},
    )


class FastEngine:
    """Optimised columnar drive loop over the reference processor objects."""

    name = "fast"

    def run(self, machine, trace: Trace) -> CoreResult:
        """Simulate ``trace`` on ``machine`` with the optimised loop."""
        try:
            trace.columns()
        except (TraceError, OverflowError):
            # Streams outside the columnar envelope -- hand-built
            # instructions with more than four sources (TraceError) or with
            # fields exceeding the column typecodes' fixed widths, e.g. an
            # access size above 65535 (OverflowError from array.append) --
            # take the reference walk, which is bit-identical by definition.
            return machine.build().run(trace)
        build_started = perf_counter()
        processor = machine.build()
        phases.add("build", perf_counter() - build_started)
        if isinstance(processor, FMCProcessor):
            return run_fmc_fast(processor, trace)
        return run_ooo_fast(processor, trace)
