"""Differential verification: the fast engine is bit-identical to reference.

The ``fast`` engine (:mod:`repro.sim.engine.fast`) re-implements the
reference per-instruction walk with interpreter-friendly data structures.
The only acceptable difference is wall-clock time: every
:class:`~repro.uarch.result.CoreResult` field -- cycles, committed
instructions, **every counter**, every histogram bin, and the derived floats
-- must match the ``reference`` engine bit for bit.

The matrix runs every workload family and both quick SPEC-like suites, each
under at least three seeds, rotating through all seven paper machine
configurations so that every LSQ organisation's code path (conventional,
SVW, central, ELSQ line/hash, restricted SAC) is exercised by both engines.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.sim.configs import (
    MachineConfig,
    fmc_central,
    fmc_hash,
    fmc_hash_rsac,
    fmc_hash_svw,
    fmc_line,
    ooo_64,
    ooo_64_svw,
)
from repro.sim.engine import engine_by_name
from repro.workloads.base import WorkloadParameters
from repro.workloads.families import FAMILY_NAMES, family_suite
from repro.workloads.suite import generate_member_trace, quick_fp_suite, quick_int_suite

#: Trace length: long enough for epoch turnover, SVW windows and ERT
#: population; short enough that the reference runs stay affordable.
INSTRUCTIONS = 1_500

#: At least three seeds per workload family (satellite requirement).
SEEDS = (2008, 7, 123)

#: Every paper configuration, in rotation order.
PAPER_MACHINES: Tuple[MachineConfig, ...] = (
    ooo_64(),
    ooo_64_svw(),
    fmc_central(),
    fmc_line(),
    fmc_hash(),
    fmc_hash_svw(),
    fmc_hash_rsac(),
)


def _family_cases() -> List[Tuple[str, WorkloadParameters, int, MachineConfig]]:
    """Every family x seed, rotating members and machines deterministically."""
    cases = []
    index = 0
    for family_index, family in enumerate(FAMILY_NAMES):
        members = list(family_suite(family))
        for seed_index, seed in enumerate(SEEDS):
            member = members[(family_index + seed_index) % len(members)]
            machine = PAPER_MACHINES[index % len(PAPER_MACHINES)]
            cases.append((family, member, seed, machine))
            index += 1
    return cases


def _suite_cases() -> List[Tuple[str, WorkloadParameters, int, MachineConfig]]:
    """Every quick-suite member under the baseline and the headline machine."""
    cases = []
    for suite in (quick_fp_suite(), quick_int_suite()):
        for member_index, member in enumerate(suite):
            for machine in (ooo_64(), fmc_hash()):
                seed = SEEDS[member_index % len(SEEDS)]
                cases.append((suite.name, member, seed, machine))
    return cases


ALL_CASES = _family_cases() + _suite_cases()


def test_rotation_covers_every_paper_machine() -> None:
    """The family matrix alone exercises all seven paper configurations."""
    used = {machine.name for _, _, _, machine in _family_cases()}
    assert used == {machine.name for machine in PAPER_MACHINES}


@pytest.mark.parametrize(
    "scope,member,seed,machine",
    ALL_CASES,
    ids=[f"{scope}-{member.name}-s{seed}-{machine.name}" for scope, member, seed, machine in ALL_CASES],
)
def test_fast_engine_is_bit_identical(scope, member, seed, machine) -> None:
    trace = generate_member_trace(member, INSTRUCTIONS, seed=seed)
    reference = engine_by_name("reference").run(machine, trace)
    fast = engine_by_name("fast").run(machine, trace)

    # Compare the lowered form first: on mismatch pytest shows exactly which
    # counter / histogram / field drifted.
    assert fast.to_dict() == reference.to_dict()
    # And the full dataclass equality, covering every field at once.
    assert fast == reference

    # Spell the satellite requirement out explicitly: every counter (not just
    # IPC) is bit-identical, and both engines produced the same counter set.
    assert set(fast.stats.counters) == set(reference.stats.counters)
    for name, value in reference.stats.counters.items():
        assert fast.stats.counters[name] == value, name


def _policy_cases() -> List[Tuple[str, MachineConfig]]:
    """Every timing replacement policy on the baseline and headline machines."""
    from repro.memory.replacement import TIMING_POLICY_NAMES

    return [
        (policy, machine.with_policy(policy))
        for policy in TIMING_POLICY_NAMES
        for machine in (ooo_64(), fmc_hash())
    ]


@pytest.mark.parametrize(
    "policy,machine",
    _policy_cases(),
    ids=[f"{policy}-{machine.name}" for policy, machine in _policy_cases()],
)
def test_fast_engine_is_bit_identical_per_policy(policy, machine) -> None:
    """The engines agree for every *replacement policy*, not just LRU.

    The engines never touch replacement state directly (victims come from
    the policy object), but the fast engine's warm-up memoisation captures
    and restores policy state -- this matrix pins that protocol for each
    implementation in the registry.
    """
    assert machine.hierarchy.l1.replacement_policy == policy
    member = list(family_suite("pointer_chase"))[0]
    trace = generate_member_trace(member, INSTRUCTIONS, seed=SEEDS[0])
    reference = engine_by_name("reference").run(machine, trace)
    fast = engine_by_name("fast").run(machine, trace)
    assert fast.to_dict() == reference.to_dict()
    assert fast == reference


@pytest.mark.parametrize(
    "machine", [ooo_64(), fmc_hash()], ids=lambda machine: machine.name
)
def test_storage_form_never_changes_the_result(machine) -> None:
    """fast-on-columns == fast-on-objects == reference, for the same stream.

    Generated traces are natively column-backed; a trace rebuilt from its
    materialised instruction objects (deriving fresh columns on demand) and
    a trace whose objects were never materialised must produce the same
    CoreResult under both engines.
    """
    from repro.isa.trace import Trace

    member = list(quick_int_suite())[0]
    columnar = generate_member_trace(member, INSTRUCTIONS, seed=SEEDS[0])
    object_built = Trace(
        list(columnar), name=columnar.name, regions=columnar.regions
    )
    fresh_columnar = generate_member_trace(member, INSTRUCTIONS, seed=SEEDS[0])
    assert fresh_columnar._instructions is None  # objects never materialised

    results = [
        engine_by_name("fast").run(machine, fresh_columnar),
        engine_by_name("fast").run(machine, object_built),
        engine_by_name("reference").run(machine, object_built),
        engine_by_name("reference").run(machine, columnar),
    ]
    for other in results[1:]:
        assert other.to_dict() == results[0].to_dict()
        assert other == results[0]


def test_counters_exist_only_once_their_event_happened() -> None:
    """No migration, no ``fmc.migrated_instructions``, under either engine.

    The fast loop sums migrated instructions locally and adds the total
    once at the end; the reference walk bumps the counter per migration.
    Independent single-cycle ALU operations never wait on an operand, so
    nothing is low locality and nothing migrates: neither snapshot may
    hold the counter, and both must hold the same counters.  A
    conventional core reports no ``fmc.*`` counter at all.
    """
    from repro.isa.instruction import int_alu
    from repro.isa.trace import Trace

    trace = Trace([int_alu(seq, dest=seq % 8) for seq in range(400)], name="alu_only")
    for machine in (fmc_hash(), fmc_central()):
        reference = engine_by_name("reference").run(machine, trace)
        fast = engine_by_name("fast").run(machine, trace)
        assert "fmc.epochs_allocated" in fast.stats.counters
        assert "fmc.migrated_instructions" not in reference.stats.counters
        assert "fmc.migrated_instructions" not in fast.stats.counters
        assert set(fast.stats.counters) == set(reference.stats.counters)
        assert fast == reference

    for engine in ("reference", "fast"):
        conventional = engine_by_name(engine).run(ooo_64(), trace)
        assert not [name for name in conventional.stats.counters if name.startswith("fmc.")]
