"""The miss-ratio-curve profiler and its Belady OPT lower bound."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.memory.mrc import (
    DEFAULT_SIZES_BYTES,
    check_opt_lower_bound,
    line_stream,
    miss_ratio_curve,
    next_use_positions,
    policy_sweep,
    profile_trace,
    simulate_miss_ratio,
)
from repro.memory.replacement import POLICY_NAMES
from repro.sim.experiments import campaign_context, experiment_by_name
from repro.workloads.families import FAMILY_NAMES, family_suite
from repro.workloads.suite import generate_member_trace

INSTRUCTIONS = 1_500
SEED = 2008

#: A smaller sweep keeps the full-matrix tests quick.
SIZES = (1024, 2048, 4096)


def _family_streams():
    streams = []
    for family in FAMILY_NAMES:
        member = family_suite(family).members[0]
        trace = generate_member_trace(member, INSTRUCTIONS, seed=SEED)
        streams.append((family, line_stream(trace)))
    return streams


def test_line_stream_extracts_loads_and_stores() -> None:
    member = family_suite("streaming").members[0]
    trace = generate_member_trace(member, INSTRUCTIONS, seed=SEED)
    lines = line_stream(trace)
    assert lines, "a streaming workload must issue memory operations"
    memory_ops = sum(
        1 for instruction in trace if instruction.is_load or instruction.is_store
    )
    assert len(lines) == memory_ops


def test_next_use_positions() -> None:
    lines = [10, 20, 10, 30, 20]
    assert next_use_positions(lines) == [2, 4, float("inf"), float("inf"), float("inf")]
    assert next_use_positions([]) == []


@pytest.mark.parametrize(
    "family,lines", _family_streams(), ids=[family for family, _ in _family_streams()]
)
def test_opt_is_a_lower_bound_for_every_policy(family, lines) -> None:
    """Belady with the true future beats every online policy, per size."""
    curves = {
        policy: miss_ratio_curve(lines, policy, SIZES) for policy in POLICY_NAMES
    }
    for size_index in range(len(SIZES)):
        opt = curves["opt"][size_index]
        for policy in POLICY_NAMES:
            assert opt <= curves[policy][size_index] + 1e-12, (
                f"{family}: OPT above {policy} at {SIZES[size_index]}B"
            )


@pytest.mark.parametrize(
    "family,lines", _family_streams(), ids=[family for family, _ in _family_streams()]
)
@pytest.mark.parametrize("policy", ("lru", "opt"))
def test_stack_policy_curves_are_non_increasing(family, lines, policy) -> None:
    """More capacity never hurts LRU or OPT on the family traces."""
    curve = miss_ratio_curve(lines, policy, DEFAULT_SIZES_BYTES)
    for smaller, larger in zip(curve, curve[1:]):
        assert larger <= smaller + 1e-12


def test_simulate_miss_ratio_degenerate_cases() -> None:
    assert simulate_miss_ratio([], "lru", 1024) == 0.0
    # A single line always misses once, then hits.
    assert simulate_miss_ratio([5] * 10, "lru", 1024) == pytest.approx(0.1)
    with pytest.raises(ConfigurationError):
        miss_ratio_curve([1, 2, 3], "lru", ())


def test_check_opt_lower_bound_flags_violations() -> None:
    from repro.common.errors import SimulationError

    good = {"trace": "t", "miss_ratios": {"opt": [0.1], "lru": [0.2]}}
    check_opt_lower_bound(good)
    bad = {"trace": "t", "miss_ratios": {"opt": [0.3], "lru": [0.2]}}
    with pytest.raises(SimulationError):
        check_opt_lower_bound(bad)


def test_policy_sweep_artifact_schema() -> None:
    """One MRC per family per policy, with the documented schema."""
    context = campaign_context(instructions=800)
    artifact = policy_sweep(context)
    assert artifact["artifact"] == "repro-mrc"
    assert artifact["policies"] == list(POLICY_NAMES)
    assert set(artifact["families"]) == set(FAMILY_NAMES)
    for family_block in artifact["families"].values():
        assert set(family_block["curves"]) == set(POLICY_NAMES)
        for curve in family_block["curves"].values():
            assert len(curve) == len(artifact["sizes_bytes"])
            assert all(0.0 <= ratio <= 1.0 for ratio in curve)
        for member in family_block["members"].values():
            assert member["accesses"] > 0
            assert set(member["miss_ratios"]) == set(POLICY_NAMES)


def test_policy_sweep_is_a_registered_experiment() -> None:
    context = campaign_context(instructions=500)
    plan = experiment_by_name("policy-sweep").plan(context)
    assert plan.cases == ()
    assert tuple(plan.suites) == FAMILY_NAMES
    artifact = context.run(plan)
    assert set(artifact["families"]) == set(FAMILY_NAMES)


def test_profile_trace_names_the_trace() -> None:
    member = family_suite("phased").members[0]
    trace = generate_member_trace(member, 500, seed=SEED)
    document = profile_trace(trace, policies=("lru",), sizes_bytes=(1024,))
    assert document["trace"] == trace.name
    assert document["unique_lines"] <= document["accesses"]
