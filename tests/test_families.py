"""Tests for the workload families and the family sensitivity sweep.

Each family is supposed to isolate one behaviour; these tests assert the
isolation actually shows up in the generated streams and in the simulated
numbers (streaming beats pointer chasing on the FMC, branchy mispredicts
more, phased alternates), that the families are addressable through the
suite registry and the experiment/CLI registries, and that the family sweep
produces identical series through the serial and orchestrated paths.
"""

from __future__ import annotations

import pytest
from _helpers import TEST_SEED

from repro.common.errors import WorkloadError
from repro.exp.runner import ExperimentRunner
from repro.sim.configs import fmc_hash
from repro.sim.experiments import (
    EXPERIMENTS,
    FamilySweepPoint,
    family_sweep,
    quick_context,
)
from repro.sim.simulator import Simulator
from repro.workloads.families import (
    FAMILY_NAMES,
    family_suite,
    family_suites,
)
from repro.workloads.suite import (
    generate_member_trace,
    suite_by_name,
    suite_names,
    workload_by_name,
)

FAMILY_TEST_INSTRUCTIONS = 2_000


class TestFamilyRegistry:
    def test_family_names(self):
        assert FAMILY_NAMES == ("pointer_chase", "streaming", "branchy", "phased")

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_families_are_registered_suites(self, name):
        suite = suite_by_name(name)
        assert suite.name == name
        assert len(suite) == 2
        assert suite.member_names() == family_suite(name).member_names()

    def test_suite_names_cover_families_and_spec(self):
        names = suite_names()
        for name in FAMILY_NAMES:
            assert name in names
        assert "spec_fp_like" in names and "spec_int_like" in names

    def test_family_suites_mapping(self):
        suites = family_suites()
        assert tuple(suites) == FAMILY_NAMES
        assert all(suites[name].name == name for name in suites)

    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError):
            family_suite("spec_fp_like")

    def test_workload_by_name_spans_all_registries(self):
        assert workload_by_name("list_walk").name == "list_walk"
        assert workload_by_name("mcf_like").name == "mcf_like"
        assert workload_by_name("swim_like").name == "swim_like"
        with pytest.raises(WorkloadError):
            workload_by_name("not_a_workload")


class TestFamilyCharacter:
    """The families must actually exhibit the behaviour they claim to isolate."""

    def _trace(self, member_name: str):
        return generate_member_trace(
            workload_by_name(member_name), FAMILY_TEST_INSTRUCTIONS, seed=TEST_SEED
        )

    def test_streaming_outruns_pointer_chasing_on_the_fmc(self):
        """Independent misses (MLP) must beat dependent-miss chains."""
        simulator = Simulator(fmc_hash())
        streaming = simulator.run_trace(self._trace("stream_copy"))
        chasing = simulator.run_trace(self._trace("list_walk"))
        assert streaming.ipc > chasing.ipc

    def test_branchy_mispredicts_more_than_streaming(self):
        branchy = self._trace("interpreter_loop").statistics()
        streaming = self._trace("stream_copy").statistics()
        assert branchy.branch_fraction > streaming.branch_fraction
        assert branchy.branch_mispredict_rate > streaming.branch_mispredict_rate

    def test_phased_members_declare_phases(self):
        for member in family_suite("phased"):
            assert member.phase_length > 0
            assert 0.0 < member.memory_phase_fraction < 1.0
        for member in family_suite("streaming"):
            assert member.phase_length == 0

    def test_pointer_chase_members_chase(self):
        for member in family_suite("pointer_chase"):
            assert member.chased_load_fraction >= 0.3
        for member in family_suite("streaming"):
            assert member.chased_load_fraction == 0.0


class TestFamilySweep:
    def test_registered_experiment(self):
        assert EXPERIMENTS["family-sweep"].plan is family_sweep

    def test_sweep_points_and_shape(self):
        context = quick_context(instructions=800, seed=TEST_SEED)
        points = context.run(
            family_sweep(
                context,
                families=("streaming",),
                epoch_counts=(2, 16),
                locality_thresholds=(30,),
            )
        )
        assert [
            (point.family, point.knob, point.value) for point in points
        ] == [
            ("streaming", "epochs", 2),
            ("streaming", "epochs", 16),
            ("streaming", "locality_threshold", 30),
        ]
        assert all(isinstance(point, FamilySweepPoint) for point in points)
        assert all(point.mean_ipc > 0 for point in points)
        # Two epochs strangle a high-MLP family; sixteen must do better.
        assert points[1].mean_ipc > points[0].mean_ipc
        assert (
            points[0].migration_stall_cycles_per_100m
            > points[1].migration_stall_cycles_per_100m
        )

    def test_serial_and_orchestrated_sweeps_are_bit_identical(self):
        serial_context = quick_context(instructions=700, seed=TEST_SEED)
        parallel_context = quick_context(instructions=700, seed=TEST_SEED)
        kwargs = {
            "families": ("pointer_chase", "phased"),
            "epoch_counts": (4,),
            "locality_thresholds": (10, 90),
        }
        serial = serial_context.run(family_sweep(serial_context, **kwargs))
        with ExperimentRunner(jobs=2) as runner:
            parallel_context.runner = runner
            parallel = parallel_context.run(family_sweep(parallel_context, **kwargs))
        assert serial == parallel
        assert runner.executed_jobs > 0

    def test_family_sweep_does_not_leak_suites_into_the_context(self):
        """A shared campaign context must keep its two SPEC-like suites."""
        context = quick_context(instructions=600, seed=TEST_SEED)
        plan = family_sweep(
            context, families=("branchy",), epoch_counts=(16,), locality_thresholds=()
        )
        assert list(plan.suites) == ["branchy"]
        assert context.run(plan)
        assert set(context.suites()) == {"SPEC FP", "SPEC INT"}
