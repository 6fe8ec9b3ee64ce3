"""Tests for the synthetic workload generators and suites."""

from __future__ import annotations

import math

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.base import MemoryRegion, SyntheticWorkload, WorkloadParameters
from repro.workloads.spec_fp import SPEC_FP_KERNELS, equake_like, fp_kernel, swim_like
from repro.workloads.spec_int import SPEC_INT_KERNELS, int_kernel, mcf_like
from repro.workloads.suite import (
    quick_fp_suite,
    quick_int_suite,
    spec_fp_suite,
    spec_int_suite,
    suite_by_name,
)


class TestMemoryRegion:
    def test_rejects_bad_pattern(self):
        with pytest.raises(WorkloadError):
            MemoryRegion(name="x", size_bytes=1024, weight=1.0, pattern="zigzag")

    def test_rejects_non_positive_size(self):
        with pytest.raises(WorkloadError):
            MemoryRegion(name="x", size_bytes=0, weight=1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(WorkloadError):
            MemoryRegion(name="x", size_bytes=1024, weight=weight)


class TestWorkloadParameters:
    def test_rejects_fraction_sum_above_one(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(load_fraction=0.6, store_fraction=0.3, branch_fraction=0.2)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(chased_load_fraction=1.5)

    def test_rejects_empty_regions(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(regions=())

    def test_rejects_all_zero_region_weights(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(
                regions=(MemoryRegion(name="a", size_bytes=64, weight=0.0),)
            )

    def test_rejects_region_weights_with_an_infinite_sum(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(
                regions=(
                    MemoryRegion(name="a", size_bytes=64, weight=1e308),
                    MemoryRegion(name="b", size_bytes=64, weight=1e308),
                )
            )

    def test_rejects_non_power_of_two_access_size(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(access_sizes=((3, 1.0),))

    def test_access_sizes_must_fit_the_trace_size_column(self):
        """A power of two wider than the 16-bit size column is refused up front."""
        with pytest.raises(WorkloadError, match="access size 65536 exceeds"):
            WorkloadParameters(access_sizes=((65536, 1.0),))
        trace = SyntheticWorkload(WorkloadParameters(access_sizes=((32768, 1.0),))).generate(50)
        assert {instruction.size for instruction in trace if instruction.is_memory} == {32768}

    @pytest.mark.parametrize(
        "access_sizes",
        [
            ((8, 0.0), (4, 0.0)),
            ((8, math.nan), (4, 1.0)),
            ((8, 1.0), (4, math.inf)),
        ],
        ids=["all-zero", "nan", "inf"],
    )
    def test_rejects_unusable_access_size_weights(self, access_sizes):
        with pytest.raises(WorkloadError):
            WorkloadParameters(access_sizes=access_sizes)

    def test_with_name(self):
        renamed = WorkloadParameters().with_name("other")
        assert renamed.name == "other"


class TestSyntheticWorkload:
    def test_exact_instruction_count(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params).generate(500)
        assert len(trace) == 500

    def test_zero_instructions(self, small_workload_params):
        assert len(SyntheticWorkload(small_workload_params).generate(0)) == 0

    def test_negative_count_rejected(self, small_workload_params):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(small_workload_params).generate(-1)

    def test_deterministic_given_seed(self, small_workload_params):
        a = SyntheticWorkload(small_workload_params, seed=5).generate(400)
        b = SyntheticWorkload(small_workload_params, seed=5).generate(400)
        assert list(a) == list(b)

    def test_different_seeds_differ(self, small_workload_params):
        a = SyntheticWorkload(small_workload_params, seed=5).generate(400)
        b = SyntheticWorkload(small_workload_params, seed=6).generate(400)
        assert list(a) != list(b)

    def test_instruction_mix_roughly_matches(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params, seed=2).generate(6000)
        stats = trace.statistics()
        assert stats.load_fraction == pytest.approx(0.3, abs=0.05)
        assert stats.store_fraction == pytest.approx(0.1, abs=0.04)
        assert stats.branch_fraction == pytest.approx(0.1, abs=0.04)

    def test_mispredict_rate_roughly_matches(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params, seed=2).generate(8000)
        stats = trace.statistics()
        assert 0.0 < stats.branch_mispredict_rate < 0.08

    def test_addresses_fall_inside_regions(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params, seed=3).generate(2000)
        regions = trace.regions
        assert regions, "synthetic traces must carry region footprints"
        bounds = [
            (region.base_address, region.base_address + region.size_bytes)
            for region in regions
        ]
        for op in trace.memory_operations():
            assert any(low <= op.address < high for low, high in bounds)

    def test_memory_ops_have_sources(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params, seed=3).generate(1000)
        for op in trace.memory_operations():
            assert op.srcs, "memory operations must carry address operands"

    def test_store_data_operand_is_last_source(self, small_workload_params):
        trace = SyntheticWorkload(small_workload_params, seed=3).generate(1000)
        stores = [op for op in trace.memory_operations() if op.is_store]
        assert stores
        assert all(len(op.srcs) >= 2 for op in stores)

    def test_phase_mechanism_restricts_far_accesses(self):
        params = WorkloadParameters(
            name="phased",
            load_fraction=0.4,
            store_fraction=0.1,
            branch_fraction=0.05,
            regions=(
                MemoryRegion(name="far", size_bytes=8 * 1024 * 1024, weight=0.5, pattern="random", is_far=True),
                MemoryRegion(name="hot", size_bytes=16 * 1024, weight=0.5, pattern="stream"),
            ),
            phase_length=100,
            memory_phase_fraction=0.5,
            seed=7,
        )
        trace = SyntheticWorkload(params, seed=7).generate(4000)
        far_base = next(r.base_address for r in trace.regions if r.name == "far")
        far_end = far_base + 8 * 1024 * 1024
        compute_phase_far_accesses = 0
        memory_ops = 0
        generator = SyntheticWorkload(params, seed=7)
        for op in trace.memory_operations():
            memory_ops += 1
            if far_base <= op.address < far_end and not generator._in_memory_phase(op.seq):
                compute_phase_far_accesses += 1
        # Fresh far accesses only happen in memory phases; the few exceptions
        # are forwarding loads that re-read an address stored during an
        # earlier memory phase.
        assert compute_phase_far_accesses < 0.02 * memory_ops

    def test_memory_phase_fraction_zero_disables_far_regions(self):
        params = WorkloadParameters(
            name="no_mem_phase",
            regions=(
                MemoryRegion(name="far", size_bytes=4 * 1024 * 1024, weight=0.9, pattern="random", is_far=True),
                MemoryRegion(name="hot", size_bytes=16 * 1024, weight=0.1, pattern="stream"),
            ),
            phase_length=50,
            memory_phase_fraction=0.0,
            seed=9,
        )
        trace = SyntheticWorkload(params, seed=9).generate(2000)
        far_base = next(r.base_address for r in trace.regions if r.name == "far")
        far_end = far_base + 4 * 1024 * 1024
        assert all(not (far_base <= op.address < far_end) for op in trace.memory_operations())


class TestKernels:
    @pytest.mark.parametrize("name", sorted(SPEC_FP_KERNELS))
    def test_fp_kernels_construct_and_generate(self, name):
        params = fp_kernel(name)
        trace = SyntheticWorkload(params, seed=1).generate(300)
        assert len(trace) == 300

    @pytest.mark.parametrize("name", sorted(SPEC_INT_KERNELS))
    def test_int_kernels_construct_and_generate(self, name):
        params = int_kernel(name)
        trace = SyntheticWorkload(params, seed=1).generate(300)
        assert len(trace) == 300

    def test_unknown_kernel_rejected(self):
        with pytest.raises(WorkloadError):
            fp_kernel("does_not_exist")
        with pytest.raises(WorkloadError):
            int_kernel("does_not_exist")

    def test_equake_has_chased_stores(self):
        # Section 5.5: equake's smvp() computes store addresses by pointer
        # dereferencing, which is what punishes restricted SAC.
        assert equake_like().chased_store_fraction > 0.05
        assert swim_like().chased_store_fraction < 0.01

    def test_int_kernels_are_branchier_than_fp(self):
        assert mcf_like().branch_fraction > swim_like().branch_fraction
        assert mcf_like().branch_mispredict_rate > swim_like().branch_mispredict_rate


class TestSuites:
    def test_fp_suite_members(self):
        suite = spec_fp_suite()
        assert len(suite) == 6
        assert "equake_like" in suite.member_names()

    def test_int_suite_members(self):
        suite = spec_int_suite()
        assert len(suite) == 6
        assert "mcf_like" in suite.member_names()

    def test_quick_suites_are_subsets(self):
        assert set(quick_fp_suite().member_names()) <= set(spec_fp_suite().member_names())
        assert set(quick_int_suite().member_names()) <= set(spec_int_suite().member_names())

    def test_suite_by_name(self):
        assert suite_by_name("spec_fp_like").name == "spec_fp_like"
        with pytest.raises(WorkloadError):
            suite_by_name("nope")

    def test_member_lookup(self):
        suite = spec_fp_suite()
        assert suite.member("swim_like").name == "swim_like"
        with pytest.raises(WorkloadError):
            suite.member("missing")

    def test_generate_traces(self):
        traces = quick_fp_suite().generate_traces(200, seed=4)
        assert len(traces) == 2
        assert all(len(trace) == 200 for trace in traces)

    def test_subset_preserves_order(self):
        suite = spec_int_suite().subset(["vpr_like", "gcc_like"])
        assert suite.member_names() == ["vpr_like", "gcc_like"]
