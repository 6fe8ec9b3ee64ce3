"""The engine registry, and the fast engine's warm-up against the reference.

Every simulation runs the one registered engine; these tests pin how the
simulator resolves it, which is the hook the benchmark's phase probe and
the golden tests' reference walk use.

They also hold the fast engine's lazy warm-up to the reference replay
(:meth:`MemoryHierarchy.warm_up_regions`) set by set, for every timing
policy.  The differential matrix cannot: ARC behaves like LRU until a ghost
hit, so a wrong ghost list would pass it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from _helpers import TEST_SEED
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, MemoryHierarchyConfig
from repro.common.errors import ConfigurationError
from repro.isa.columns import CODE_LOAD, CODE_STORE
from repro.isa.trace import RegionFootprint
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import TIMING_POLICY_NAMES
from repro.sim.configs import PAPER_CONFIGS, fmc_hash, machine_by_name, ooo_64
from repro.sim.engine import DEFAULT_ENGINE, engine_by_name, register_engine
from repro.sim.engine.fast import warm_hierarchy
from repro.sim.simulator import Simulator
from repro.workloads.families import family_suites
from repro.workloads.suite import (
    generate_member_trace,
    quick_int_suite,
    spec_fp_suite,
    spec_int_suite,
)


def test_unknown_engine_raises_helpfully() -> None:
    with pytest.raises(ConfigurationError, match="unknown simulation engine"):
        engine_by_name("warp")


def test_simulator_routes_through_the_selected_engine() -> None:
    """Every simulation resolves the engine registered under the default
    name when it runs, so an engine swapped in there sees it; the fast
    engine itself reproduces the reference walk."""
    member = list(quick_int_suite())[0]
    trace = generate_member_trace(member, 600, seed=TEST_SEED)
    fast = engine_by_name(DEFAULT_ENGINE)
    seen = []

    class Probe:
        name = DEFAULT_ENGINE

        def run(self, machine, run_trace):
            seen.append(machine.name)
            return fast.run(machine, run_trace)

    register_engine(Probe())
    try:
        probed = Simulator(fmc_hash()).run_trace(trace)
    finally:
        register_engine(fast)
    assert seen == [fmc_hash().name]
    assert probed == Simulator(fmc_hash()).run_trace(trace) == fmc_hash().build().run(trace)


def _assert_warm_state_matches_replay(config, regions) -> None:
    reference = MemoryHierarchy(config)
    reference.warm_up_regions(regions)
    warmed = MemoryHierarchy(config)
    warm_hierarchy(warmed, regions)
    assert warmed.l1.set_states() == reference.l1.set_states()
    assert warmed.l2.set_states() == reference.l2.set_states()


def test_analytic_warm_state_matches_reference_across_geometries() -> None:
    """The closed-form warm-up equals the reference replay for every timing
    policy, every paper machine geometry, swept cache shapes, and
    overlapping footprints (which the caches replay instead)."""
    region_sets = [
        generate_member_trace(member, 50, seed=TEST_SEED).regions
        for suite in (quick_int_suite(), family_suites()["streaming"])
        for member in suite
    ]
    # Overlapping / duplicate-line footprints: the closed form declines and
    # the replay must still produce the reference state.
    region_sets.append(
        (
            RegionFootprint("low", 4096, 64 * 1024, 1.0, "stream"),
            RegionFootprint("high", 4096 + 16 * 1024, 64 * 1024, 3.0, "random"),
        )
    )
    default = MemoryHierarchyConfig()
    geometries = {(config.l1, config.l2): config for config in (
        [machine_by_name(name).hierarchy for name in PAPER_CONFIGS]
        + [
            default,
            replace(default, l1=replace(default.l1, size_bytes=8 * 1024)),
            replace(default, l2=replace(default.l2, associativity=4)),
            replace(default, l1=replace(default.l1, associativity=1)),
        ]
    )}
    for policy in TIMING_POLICY_NAMES:
        for config in geometries.values():
            for regions in region_sets:
                _assert_warm_state_matches_replay(config.with_policy(policy), regions)


@given(
    associativity=st.sampled_from((1, 2, 4, 8)),
    policy=st.sampled_from(TIMING_POLICY_NAMES),
    # (gap before the region, size, weight), all in bytes: regions follow
    # one another, so most examples take the closed form, while unaligned
    # ends that share a line exercise the replay.
    layout=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=600),
            st.integers(min_value=1, max_value=3000),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_warm_state_matches_reference_for_random_footprints(associativity, policy, layout):
    l1 = CacheConfig(
        size_bytes=8 * 32 * associativity, associativity=associativity, line_size=32,
        latency=1, name="L1",
    )
    l2 = CacheConfig(
        size_bytes=32 * 64 * associativity, associativity=associativity, line_size=64,
        latency=10, name="L2",
    )
    regions = []
    base = 0
    for index, (gap, size, weight) in enumerate(layout):
        base += gap
        regions.append(RegionFootprint(f"r{index}", base, size, float(weight), "random"))
        base += size
    config = MemoryHierarchyConfig(l1=l1, l2=l2).with_policy(policy)
    _assert_warm_state_matches_replay(config, tuple(regions))


def test_lazily_warmed_sets_track_the_replay_through_a_run() -> None:
    """Sets built on first touch behave like replayed ones: after the same
    accesses and line locks both hierarchies hold the same state and
    counted the same hits and misses."""
    member = list(quick_int_suite())[0]
    trace = generate_member_trace(member, 400, seed=TEST_SEED)
    columns = trace.columns()
    addresses = [
        address
        for code, address in zip(columns.iclass, columns.address)
        if code in (CODE_LOAD, CODE_STORE)
    ]
    for policy in TIMING_POLICY_NAMES:
        config = MemoryHierarchyConfig().with_policy(policy)
        reference = MemoryHierarchy(config)
        reference.warm_up_regions(trace.regions)
        warmed = MemoryHierarchy(config)
        warm_hierarchy(warmed, trace.regions)
        for hierarchy in (reference, warmed):
            for index, address in enumerate(addresses):
                hierarchy.access(address)
                if index % 7 == 0:
                    hierarchy.lock_l1_line(address + 4096, owner=index % 2)
            hierarchy.unlock_l1_owner(0)
        assert warmed.stats.snapshot() == reference.stats.snapshot()
        assert warmed.l1.set_states() == reference.l1.set_states()
        assert warmed.l2.set_states() == reference.l2.set_states()


def test_sets_are_built_on_first_touch(monkeypatch) -> None:
    """Building a hierarchy builds no set, and a short fast run builds only
    the few sets it touches."""
    created = []
    real_materialise = SetAssociativeCache._materialise

    def counting_materialise(cache, set_index):
        created.append((cache.config.name, set_index))
        return real_materialise(cache, set_index)

    monkeypatch.setattr(SetAssociativeCache, "_materialise", counting_materialise)
    MemoryHierarchy()
    assert created == []
    for member in (list(spec_int_suite())[0], list(spec_fp_suite())[0]):
        trace = generate_member_trace(member, 1_500, seed=TEST_SEED)
        for machine in (ooo_64(), fmc_hash().with_policy("arc")):
            num_sets = machine.hierarchy.l1.num_sets + machine.hierarchy.l2.num_sets
            del created[:]
            Simulator(machine).run_trace(trace)
            assert 0 < len(created) < num_sets // 10
