"""Property/fuzz tests for the engine pair.

Deterministic pseudo-random draws (no external fuzzing dependency) sample
machine configurations and workload descriptions inside their validation
envelopes and push each draw through both engines, asserting

* bit-identical results (the differential property, on configurations no
  hand-written matrix would think of),
* structural invariants that must hold for *any* valid machine: IPC bounded
  by the commit width, every counter non-negative, cycle counts positive,
  and
* monotonicity: simulating a longer prefix of the same instruction stream
  can never finish earlier than a shorter prefix.

A second set of draws fuzzes the core geometry itself (ROB, queue sizes,
widths, latencies, memory engines), drawing paired capacities apart so a
capacity read from the wrong configuration changes the result.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.common.config import (
    CoreConfig,
    DisambiguationModel,
    ERTKind,
    LoadQueueScheme,
    MemoryEngineConfig,
)
from repro.isa.trace import Trace
from repro.sim.configs import MachineConfig, fmc_central, fmc_elsq, ooo_64, ooo_64_svw
from repro.sim.engine import engine_by_name
from repro.workloads.base import MemoryRegion, SyntheticWorkload, WorkloadParameters

#: Number of fuzz draws; each runs reference + fast once.
DRAWS = 10

#: Number of geometry draws; they cycle through OoO-64, OoO-64-SVW,
#: FMC-Central and an ELSQ machine.
GEOMETRY_DRAWS = 8

#: Queue sizes of the geometry draws: small enough to stall fetch, and none
#: equal to the 32/24-entry defaults that CoreConfig's LQ/SQ and
#: ELSQConfig's HL-LSQ share.
QUEUE_ENTRIES = (3, 4, 6, 8, 10, 12, 16)

INSTRUCTIONS = 900


def _draw_workload(rng: random.Random, index: int) -> WorkloadParameters:
    """A random workload description bounded by the validation rules."""
    load_fraction = rng.uniform(0.05, 0.4)
    store_fraction = rng.uniform(0.02, min(0.3, 0.95 - load_fraction))
    branch_fraction = rng.uniform(0.02, min(0.25, 0.98 - load_fraction - store_fraction))
    regions = [
        MemoryRegion(
            name="hot",
            size_bytes=rng.choice((8, 16, 32)) * 1024,
            weight=rng.uniform(0.3, 0.8),
            pattern=rng.choice(("stream", "random")),
        ),
        MemoryRegion(
            name="far",
            size_bytes=rng.choice((4, 8, 16)) * 1024 * 1024,
            weight=rng.uniform(0.01, 0.2),
            pattern=rng.choice(("stream", "random")),
            is_far=True,
        ),
    ]
    if rng.random() < 0.5:
        regions.append(
            MemoryRegion(
                name="warm",
                size_bytes=rng.choice((128, 256, 512)) * 1024,
                weight=rng.uniform(0.05, 0.4),
                pattern="random",
            )
        )
    return WorkloadParameters(
        name=f"fuzz_{index}",
        load_fraction=load_fraction,
        store_fraction=store_fraction,
        branch_fraction=branch_fraction,
        fp_fraction=rng.uniform(0.0, 0.3),
        regions=tuple(regions),
        chased_load_fraction=rng.uniform(0.0, 0.15),
        chased_store_fraction=rng.uniform(0.0, 0.05),
        forwarding_fraction=rng.uniform(0.0, 0.2),
        forwarding_distance_mean=rng.uniform(2.0, 24.0),
        miss_consumer_fraction=rng.uniform(0.0, 0.15),
        dependence_distance_mean=rng.uniform(2.0, 12.0),
        branch_mispredict_rate=rng.uniform(0.0, 0.08),
        mispredict_depends_on_miss_fraction=rng.uniform(0.0, 0.4),
        phase_length=rng.choice((0, 0, 500, 1500)),
        memory_phase_fraction=rng.uniform(0.2, 0.8),
        seed=rng.randrange(1_000),
    )


def _draw_machine(rng: random.Random) -> MachineConfig:
    """A random valid machine: conventional, SVW, central or an ELSQ variant."""
    choice = rng.random()
    if choice < 0.15:
        return ooo_64()
    if choice < 0.3:
        return ooo_64_svw(ssbf_index_bits=rng.choice((6, 8, 10, 12)))
    if choice < 0.4:
        return fmc_central()
    load_queue_scheme = rng.choice(
        (LoadQueueScheme.ASSOCIATIVE, LoadQueueScheme.SVW_REEXECUTION)
    )
    if load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION:
        # SVW removes the load queue; restricted LAC would remove it twice.
        disambiguation = rng.choice(
            (DisambiguationModel.FULL, DisambiguationModel.RESTRICTED_SAC)
        )
    else:
        disambiguation = rng.choice(list(DisambiguationModel))
    return fmc_elsq(
        ert_kind=rng.choice((ERTKind.HASH, ERTKind.LINE)),
        hash_bits=rng.choice((6, 8, 10, 12)),
        store_queue_mirror=rng.random() < 0.5,
        disambiguation=disambiguation,
        load_queue_scheme=load_queue_scheme,
        ssbf_index_bits=rng.choice((8, 10)),
        epoch_load_entries=rng.choice((32, 64, 128)),
        epoch_store_entries=rng.choice((16, 32, 64)),
        num_epochs=rng.choice((2, 4, 8, 16, 32)),
        locality_threshold_cycles=rng.choice((5, 15, 30, 60, 90)),
    )


def _draw_core(rng: random.Random, load_queue_entries: int, store_queue_entries: int) -> CoreConfig:
    """A random core geometry whose paired fields differ from each other."""
    fetch_width, issue_width, commit_width = rng.sample((2, 3, 4, 6, 8), 3)
    decode_latency, int_alu_latency, branch_latency = rng.sample((1, 2, 3, 5), 3)
    return CoreConfig(
        fetch_width=fetch_width,
        issue_width=issue_width,
        commit_width=commit_width,
        decode_latency=decode_latency,
        int_alu_latency=int_alu_latency,
        fp_alu_latency=rng.choice((4, 6, 9)),
        branch_latency=branch_latency,
        branch_mispredict_penalty=rng.choice((5, 9, 16, 24)),
        rob_size=rng.choice((40, 96, 128, 192)),
        load_queue_entries=load_queue_entries,
        store_queue_entries=store_queue_entries,
    )


def _draw_geometry(rng: random.Random, kind: int) -> MachineConfig:
    """OoO-64, OoO-64-SVW, FMC-Central or an ELSQ machine (``kind`` 0-3), resized.

    A conventional core gets a random LQ/SQ; an FMC gets a random Cache
    Processor whose LQ/SQ differ from its HL-LSQ, plus random memory
    engines.
    """
    if kind < 2:
        machine = ooo_64() if kind == 0 else ooo_64_svw(ssbf_index_bits=rng.choice((8, 10)))
        return replace(machine, core=_draw_core(rng, *rng.sample(QUEUE_ENTRIES, 2)))
    core_lq, core_sq, hl_lq, hl_sq = rng.sample(QUEUE_ENTRIES, 4)
    engines = rng.choice((2, 4, 8))
    if kind == 2:
        machine = fmc_central()
    else:
        machine = fmc_elsq(
            ert_kind=rng.choice((ERTKind.HASH, ERTKind.LINE)),
            disambiguation=rng.choice(list(DisambiguationModel)),
            num_epochs=engines,
            locality_threshold_cycles=rng.choice((15, 30, 60)),
        )
    max_loads, max_stores = rng.sample((8, 12, 16, 24), 2)
    memory_engine = MemoryEngineConfig(
        max_instructions=rng.choice((32, 48, 96)),
        max_loads=max_loads,
        max_stores=max_stores,
        issue_width=rng.choice((1, 2, 3)),
    )
    fmc = replace(
        machine.fmc,
        cache_processor=_draw_core(rng, core_lq, core_sq),
        memory_engine=memory_engine,
        num_memory_engines=engines,
    )
    elsq = replace(machine.elsq, hl_load_entries=hl_lq, hl_store_entries=hl_sq)
    return replace(machine, fmc=fmc, elsq=elsq)


def _commit_width(machine: MachineConfig) -> int:
    from repro.sim.configs import MachineKind

    if machine.kind is MachineKind.CONVENTIONAL:
        return machine.core.commit_width
    return machine.fmc.cache_processor.commit_width


@pytest.mark.parametrize("draw", range(DRAWS))
def test_fuzzed_configurations_are_identical_and_sane(draw: int) -> None:
    rng = random.Random(0xE15C0 + draw)
    workload = _draw_workload(rng, draw)
    machine = _draw_machine(rng)
    trace = SyntheticWorkload(workload, seed=rng.randrange(10_000)).generate(INSTRUCTIONS)

    reference = machine.build().run(trace)
    fast = engine_by_name("fast").run(machine, trace)

    # Differential property: bit-identical results.
    assert fast.to_dict() == reference.to_dict(), (workload.name, machine.name)

    # Invariants that must hold for any valid machine/workload pair.
    assert fast.cycles >= 1
    assert fast.committed_instructions == INSTRUCTIONS
    assert fast.ipc <= _commit_width(machine)
    for name, value in fast.stats.counters.items():
        assert value >= 0, name
    if fast.high_locality_fraction is not None:
        assert 0.0 <= fast.high_locality_fraction <= 1.0
    if fast.mean_allocated_epochs is not None:
        assert fast.mean_allocated_epochs >= 0.0


@pytest.mark.parametrize("draw", range(GEOMETRY_DRAWS))
def test_fuzzed_core_geometry_is_identical(draw: int) -> None:
    """Both engines agree on a resized core, whichever config each size comes from."""
    rng = random.Random(0x6E0 + draw)
    workload = _draw_workload(rng, 200 + draw)
    machine = _draw_geometry(rng, draw % 4)
    trace = SyntheticWorkload(workload, seed=rng.randrange(10_000)).generate(INSTRUCTIONS)

    reference = machine.build().run(trace)
    fast = engine_by_name("fast").run(machine, trace)

    assert fast.to_dict() == reference.to_dict(), (workload.name, machine)
    assert fast.ipc <= _commit_width(machine)


@pytest.mark.parametrize("draw", range(3))
def test_cycles_are_monotone_in_trace_length(draw: int) -> None:
    """A longer prefix of the same stream never commits earlier."""
    rng = random.Random(0xCAFE + draw)
    workload = _draw_workload(rng, 100 + draw)
    machine = _draw_machine(rng)
    full = SyntheticWorkload(workload, seed=13).generate(INSTRUCTIONS)
    fast = engine_by_name("fast")
    previous_cycles = 0
    for length in (INSTRUCTIONS // 3, 2 * INSTRUCTIONS // 3, INSTRUCTIONS):
        # Keep the region footprints: Trace.prefix drops them, and the cache
        # warm-up must see the same steady state for the comparison to mean
        # anything.
        prefix = Trace(full.instructions()[:length], name=full.name, regions=full.regions)
        result = fast.run(machine, prefix)
        assert result.cycles >= previous_cycles
        previous_cycles = result.cycles
