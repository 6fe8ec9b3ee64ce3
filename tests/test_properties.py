"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, ERTConfig, ERTKind, SVWConfig
from repro.common.stats import Histogram, StatsRegistry
from repro.core.bloom import CountingBloomFilter
from repro.core.ert import HashBasedERT
from repro.core.queues import StoreBuffer
from repro.core.records import Locality, StoreRecord
from repro.core.svw import StoreVulnerabilityWindow
from repro.isa.instruction import load, store
from repro.memory.cache import SetAssociativeCache
from repro.obs.metrics import BUCKETS_PER_OCTAVE, LogHistogram, MetricsRegistry, bucket_index
from repro.service.shards import merge_metrics_documents
from repro.uarch.resources import BandwidthAllocator, OccupancyWindow

addresses = st.integers(min_value=0, max_value=1 << 30).map(lambda value: value & ~0x7)


@given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=1, max_value=16))
def test_bloom_filter_never_false_negative(address_list, bits):
    bloom = CountingBloomFilter(bits)
    for address in address_list:
        bloom.insert(address)
    assert all(bloom.may_contain(address) for address in address_list)


@given(st.lists(addresses, min_size=1, max_size=100), st.integers(min_value=1, max_value=16))
def test_bloom_filter_insert_remove_returns_to_empty(address_list, bits):
    bloom = CountingBloomFilter(bits)
    for address in address_list:
        bloom.insert(address)
    for address in address_list:
        bloom.remove(address)
    assert bloom.population == 0


@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
)
def test_lru_victim_is_always_unlocked_or_none(touch_sequence, locked_lines):
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=4 * 32, associativity=4, line_size=32, latency=1, name="t")
    )
    locked = [line for line in locked_lines if cache.lock_line(line * 32, owner=0)]
    for line in touch_sequence:
        cache.access(line * 32)
    # A lock fails only once four locked lines fill the single set.
    assert len(set(locked)) == min(4, len(set(locked_lines)))
    assert all(cache.probe(line * 32) for line in locked)


@given(st.lists(addresses, min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_cache_hit_after_access_unless_evicted(address_list):
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=4 * 1024, associativity=4, line_size=32, latency=1, name="t")
    )
    for address in address_list:
        cache.access(address)
    # The most recently accessed address is always resident.
    assert cache.probe(address_list[-1])


@given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=4, max_value=12))
@settings(max_examples=30, deadline=None)
def test_ert_candidates_only_ever_contain_live_epochs(address_list, bits):
    ert = HashBasedERT(ERTConfig(kind=ERTKind.HASH, hash_bits=bits), StatsRegistry())
    for index, address in enumerate(address_list):
        ert.insert_store(address, epoch_id=index % 8)
    live = {0, 1, 2}
    for address in address_list:
        candidates = ert.store_candidate_epochs(address, live_epochs=live)
        assert set(candidates) <= live
        assert candidates == sorted(candidates, reverse=True)


@given(
    st.lists(
        st.tuples(addresses, st.integers(min_value=1, max_value=500)),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=30, deadline=None)
def test_store_buffer_forwarding_store_is_older_matching_and_known(pairs):
    buffer = StoreBuffer()
    for seq, (address, commit_offset) in enumerate(pairs):
        buffer.add(
            StoreRecord(
                seq=seq,
                address=address,
                size=8,
                decode_cycle=seq,
                addr_ready_cycle=seq + 2,
                data_ready_cycle=seq + 3,
                commit_cycle=seq + 2 + commit_offset,
                locality=Locality.HIGH,
            )
        )
    probe_seq = len(pairs)
    probe_cycle = len(pairs) + 10
    for address, _ in pairs:
        found = buffer.find_any_forwarding(address, 8, before_seq=probe_seq, cycle=probe_cycle)
        if found is not None:
            assert found.seq < probe_seq
            assert found.overlaps(address, 8)
            assert found.address_known_at(probe_cycle)
            assert found.in_flight_at(probe_cycle)


def _full_unresolved_scan(buffer, before_seq, after_seq, cycle):
    """Reference: every recent and slow store, no early exit."""
    return any(
        after_seq < store.seq < before_seq
        and store.in_flight_at(cycle)
        and not store.address_known_at(cycle)
        for store in (*buffer._recent, *buffer._slow)
    )


@given(
    st.lists(
        st.tuples(
            st.booleans(),  # a store, or else a load querying the buffer
            st.integers(min_value=0, max_value=3),  # decode cycles since the last instruction
            st.integers(min_value=0, max_value=40),  # address delay / load's query delay
            st.integers(min_value=0, max_value=120),  # commit delay / forwarding-store pick
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=150, deadline=None)
def test_bounded_unresolved_store_scan_matches_the_full_scan(events):
    """Program-ordered streams, pruned and queried the way the LSQ policies do."""
    buffer = StoreBuffer()
    stores = []
    decode = 0
    for seq, (is_store, advance, delay, extra) in enumerate(events):
        decode += advance
        if is_store:
            record = StoreRecord(
                seq=seq,
                address=8 * seq,
                size=8,
                decode_cycle=decode,
                addr_ready_cycle=decode + delay,
                data_ready_cycle=decode + delay,
                commit_cycle=decode + delay + extra,
                locality=Locality.HIGH,
            )
            buffer.add(record)
            stores.append(record)
            continue
        buffer.prune_slow(decode)
        cycle = decode + delay
        # Forwarding from one of the youngest stores leaves only a few
        # candidates, so the answer turns on single stores near the bounds.
        after_seq = stores[-1 - extra % min(len(stores), 6)].seq if stores and extra % 4 else -1
        assert buffer.any_unresolved_older_store(seq, after_seq, cycle) == (
            _full_unresolved_scan(buffer, seq, after_seq, cycle)
        )


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=8))
def test_bandwidth_allocator_never_exceeds_width(cycles, width):
    allocator = BandwidthAllocator(width)
    allocations = [allocator.allocate(cycle) for cycle in sorted(cycles)]
    for desired, got in zip(sorted(cycles), allocations):
        assert got >= desired
    per_cycle = {}
    for cycle in allocations:
        per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
    assert max(per_cycle.values()) <= width


@given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=64))
def test_occupancy_window_constraint_is_monotonic_under_sorted_pushes(releases, capacity):
    window = OccupancyWindow(capacity)
    previous_constraint = 0
    for release in sorted(releases):
        constraint = window.constraint()
        assert constraint >= previous_constraint
        previous_constraint = constraint
        window.push(release)


@given(st.lists(st.floats(min_value=0, max_value=10_000, allow_nan=False), min_size=1, max_size=300))
def test_histogram_mass_is_conserved(values):
    histogram = Histogram("h", bin_width=30, num_bins=40)
    for value in values:
        histogram.record(value)
    assert sum(histogram.bins) + histogram.overflow == len(values)
    assert histogram.count == len(values)


latencies = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.lists(latencies, max_size=200), min_size=1, max_size=4),
    st.sampled_from([0.5, 0.95, 0.99]),
)
@settings(max_examples=60, deadline=None)
def test_merged_shard_quantile_is_within_one_bucket_of_the_union(shards, q):
    documents = []
    for samples in shards:
        registry = MetricsRegistry()
        summary = registry.summary("latency_seconds", "per-shard latency")
        for value in samples:
            summary.record(value)
        documents.append(registry.as_document())
    merged = merge_metrics_documents(documents).series("latency_seconds")[()]
    union = [value for samples in shards for value in samples]
    expected = LogHistogram()
    for value in union:
        expected.record(value)
    # Merging is exact: the merged histogram is the union's histogram.
    assert (merged.buckets, merged.count) == (expected.buckets, expected.count)
    if not union:
        assert merged.quantile(q) == 0.0
        return
    # So its quantile is the union's exact nearest-rank quantile, to within
    # one bucket, and never below it.
    ordered = sorted(union)
    exact = ordered[max(1, -(-round(q * 100) * len(ordered) // 100)) - 1]
    reported = merged.quantile(q)
    assert bucket_index(reported) == bucket_index(exact)
    assert exact <= reported <= exact * 2 ** (1 / BUCKETS_PER_OCTAVE)


@given(
    st.lists(st.tuples(addresses, st.integers(min_value=1, max_value=1000)), min_size=1, max_size=150),
    st.integers(min_value=2, max_value=14),
)
@settings(max_examples=30, deadline=None)
def test_svw_never_misses_a_truly_vulnerable_load(commits, bits):
    """A load whose address was overwritten by a store committing inside its
    vulnerability window must always re-execute (the SSBF has no false
    negatives)."""
    svw = StoreVulnerabilityWindow(SVWConfig(ssbf_index_bits=bits), StatsRegistry())
    issue_cycle = 0
    for seq, (address, commit) in enumerate(sorted(commits, key=lambda pair: pair[1])):
        svw.store_committed(
            StoreRecord(
                seq=seq,
                address=address,
                size=8,
                decode_cycle=0,
                addr_ready_cycle=1,
                data_ready_cycle=1,
                commit_cycle=commit,
                locality=Locality.HIGH,
            )
        )
    target_address, target_commit = max(commits, key=lambda pair: pair[1])
    if target_commit > issue_cycle:
        from repro.core.records import LoadRecord

        reexecute = svw.check_load(
            LoadRecord(
                seq=len(commits) + 1,
                address=target_address,
                size=8,
                decode_cycle=0,
                issue_cycle=issue_cycle,
                locality=Locality.HIGH,
            )
        )
        assert reexecute is True


# ----------------------------------------------------------------------
# Workload / trace / simulation metamorphic properties
# ----------------------------------------------------------------------

import math  # noqa: E402

import pytest  # noqa: E402

from repro.common.config import CoreConfig  # noqa: E402
from repro.common.errors import WorkloadError  # noqa: E402
from repro.isa.columns import CODE_LOAD, CODE_STORE  # noqa: E402
from repro.sim.configs import fmc_elsq, fmc_hash, ooo_64  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.trace.format import trace_from_bytes, trace_to_bytes  # noqa: E402
from repro.workloads.base import (  # noqa: E402
    MemoryRegion,
    SyntheticWorkload,
    WorkloadParameters,
)
from repro.workloads.families import long_phases, stream_copy  # noqa: E402
from repro.workloads.suite import generate_member_trace  # noqa: E402


def _property_workload() -> WorkloadParameters:
    """A small mixed workload for simulation-level properties (fast traces)."""
    return WorkloadParameters(
        name="property_workload",
        load_fraction=0.3,
        store_fraction=0.12,
        branch_fraction=0.14,
        regions=(
            MemoryRegion(name="hot", size_bytes=16 * 1024, weight=0.7, pattern="stream"),
            MemoryRegion(
                name="far", size_bytes=8 * 1024 * 1024, weight=0.05, pattern="random", is_far=True
            ),
            MemoryRegion(name="warm", size_bytes=256 * 1024, weight=0.25, pattern="random"),
        ),
        chased_load_fraction=0.1,
        branch_mispredict_rate=0.03,
        mispredict_depends_on_miss_fraction=0.3,
    )


#: Entries of a weight table: one draw in ten is zero, NaN or infinite,
#: which a table cannot be drawn from when they make up its whole total.
_weights = st.integers(min_value=0, max_value=9).flatmap(
    lambda pick: st.sampled_from([0.0, math.nan, math.inf])
    if pick == 0
    else st.floats(min_value=0.0, max_value=100.0)
)
_regions = st.fixed_dictionaries(
    {
        "size_bytes": st.integers(min_value=8, max_value=1 << 20),
        "weight": _weights,
        "pattern": st.sampled_from(["stream", "random"]),
        "stride": st.sampled_from([4, 8, 64]),
        "is_far": st.booleans(),
    }
)
_instruction_mix = st.fixed_dictionaries(
    {
        "load_fraction": st.floats(min_value=0.0, max_value=0.6),
        "store_fraction": st.floats(min_value=0.0, max_value=0.4),
        "branch_fraction": st.floats(min_value=0.0, max_value=0.4),
        "fp_fraction": st.floats(min_value=0.0, max_value=1.0),
        "chased_load_fraction": st.floats(min_value=0.0, max_value=1.0),
        "chased_store_fraction": st.floats(min_value=0.0, max_value=1.0),
        "forwarding_fraction": st.floats(min_value=0.0, max_value=1.0),
    }
)


@given(
    mix=_instruction_mix,
    regions=st.lists(_regions, min_size=1, max_size=4),
    access_sizes=st.lists(
        st.tuples(st.sampled_from([1, 2, 4, 8, 16]), _weights), min_size=1, max_size=3
    ),
    phase_length=st.integers(min_value=0, max_value=64),
    memory_phase_fraction=st.floats(min_value=0.0, max_value=1.0),
    length=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_workload_parameters_that_construct_always_generate(
    mix, regions, access_sizes, phase_length, memory_phase_fraction, length, seed
):
    """Construction is the generator's only check.

    Either ``WorkloadParameters`` refuses its inputs with ``WorkloadError``,
    or ``generate(n)`` returns exactly ``n`` rows and every load and store
    address lies inside a region footprint.
    """
    try:
        parameters = WorkloadParameters(
            name="property_contract",
            regions=tuple(
                MemoryRegion(name=f"region{index}", **region)
                for index, region in enumerate(regions)
            ),
            access_sizes=tuple(access_sizes),
            phase_length=phase_length,
            memory_phase_fraction=memory_phase_fraction,
            **mix,
        )
    except WorkloadError:
        return
    trace = SyntheticWorkload(parameters, seed=seed).generate(length)
    columns = trace.columns()
    assert len(columns) == length
    bounds = [
        (footprint.base_address, footprint.base_address + footprint.size_bytes)
        for footprint in trace.regions
    ]
    for seq in range(length):
        if columns.iclass[seq] in (CODE_LOAD, CODE_STORE):
            address = columns.address[seq]
            assert any(low <= address < high for low, high in bounds), (seq, address)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=10, deadline=None)
def test_trace_generation_is_deterministic_per_seed(seed):
    """The same (parameters, length, seed) always yields the same stream."""
    params = _property_workload()
    first = generate_member_trace(params, 400, seed=seed)
    second = generate_member_trace(params, 400, seed=seed)
    assert list(first) == list(second)
    assert first.regions == second.regions
    assert first.name == second.name


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=5, deadline=None)
def test_ipc_never_exceeds_commit_width(seed):
    """No machine can sustain more commits per cycle than its commit width."""
    trace = generate_member_trace(_property_workload(), 600, seed=seed)
    conventional = ooo_64()
    fmc = fmc_hash()
    assert Simulator(conventional).run_trace(trace).ipc <= conventional.core.commit_width
    assert Simulator(fmc).run_trace(trace).ipc <= fmc.fmc.cache_processor.commit_width
    # The bound is structural: it holds for the defaults, so it must also be
    # the configured width, not a hard-coded constant.
    assert conventional.core.commit_width == CoreConfig().commit_width


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=5, deadline=None)
def test_trace_save_load_simulate_equals_generate_simulate(seed):
    """Binary round trip is invisible to the simulator: identical CoreResult."""
    trace = generate_member_trace(_property_workload(), 600, seed=seed)
    restored = trace_from_bytes(trace_to_bytes(trace)).trace
    simulator = Simulator(fmc_hash())
    assert simulator.run_trace(restored) == simulator.run_trace(trace)


@pytest.mark.parametrize("factory", (stream_copy, long_phases), ids=lambda f: f.__name__)
def test_epoch_count_monotonicity_of_migration_stalls(factory):
    """Adding memory engines can only relieve epoch-pool pressure.

    Migration stall cycles (waiting for a free engine) must be non-increasing
    and IPC non-decreasing as the epoch count grows, on the families that
    actually saturate the pool (streaming and phased).
    """
    trace = generate_member_trace(factory(), 6_000, seed=2008)
    previous_stalls = None
    previous_ipc = None
    for epochs in (2, 4, 8, 16):
        machine = fmc_elsq(num_epochs=epochs, name=f"FMC-Hash-{epochs}E")
        result = Simulator(machine).run_trace(trace)
        stalls = result.counter("fmc.migration_stall_cycles")
        if previous_stalls is not None:
            assert stalls <= previous_stalls
            assert result.ipc >= previous_ipc
        previous_stalls = stalls
        previous_ipc = result.ipc
    # With the full 16-engine pool these workloads never wait for an epoch.
    assert previous_stalls == 0


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_trace_round_trip_property(data):
    instructions = []
    for seq in range(data.draw(st.integers(min_value=1, max_value=40))):
        if data.draw(st.booleans()):
            instructions.append(load(seq, dest=8, address=data.draw(addresses)))
        else:
            instructions.append(store(seq, address=data.draw(addresses), srcs=(1,)))
    from repro.isa.trace import Trace

    trace = Trace(instructions, name="prop")
    stats = trace.statistics()
    assert stats.num_loads + stats.num_stores == len(instructions)
