"""Tests for the instruction and trace model."""

from __future__ import annotations

import pytest

from repro.common.errors import TraceError
from repro.isa.instruction import (
    InstrClass,
    Instruction,
    branch,
    int_alu,
    load,
    store,
)
from repro.isa.trace import RegionFootprint, Trace


class TestInstruction:
    def test_load_requires_address(self):
        with pytest.raises(TraceError):
            Instruction(seq=0, iclass=InstrClass.LOAD, dest=1)

    def test_alu_must_not_have_address(self):
        with pytest.raises(TraceError):
            Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, address=0x100)

    def test_only_branches_mispredict(self):
        with pytest.raises(TraceError):
            Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, mispredicted=True)

    def test_register_range_validation(self):
        with pytest.raises(TraceError):
            int_alu(0, dest=4096)
        with pytest.raises(TraceError):
            int_alu(0, dest=1, srcs=(4096,))

    def test_negative_seq_rejected(self):
        with pytest.raises(TraceError):
            int_alu(-1, dest=1)

    @pytest.mark.parametrize(
        "fields, match",
        [
            # A trace row holds four sources, a u16 access size, a u64 address
            # and a u32 latency; the simulator's columns could not take these.
            (dict(iclass=InstrClass.INT_ALU, dest=2, srcs=(1, 1, 1, 1, 1)), "at most 4"),
            (dict(iclass=InstrClass.LOAD, dest=2, srcs=(1,), address=0, size=2**16), "access size"),
            (dict(iclass=InstrClass.INT_ALU, dest=2, srcs=(1,), size=-1), "access size"),
            (dict(iclass=InstrClass.LOAD, dest=2, srcs=(1,), address=2**64), "64 bits"),
            (dict(iclass=InstrClass.INT_ALU, dest=2, srcs=(1,), latency=2**32), "latency"),
        ],
        ids=["five-sources", "huge-size", "negative-size", "huge-address", "huge-latency"],
    )
    def test_values_a_trace_row_cannot_hold_are_refused(self, fields, match):
        with pytest.raises(TraceError, match=match):
            Instruction(seq=1, **fields)

    def test_memory_predicates(self):
        ld = load(0, dest=1, address=0x40)
        st = store(1, address=0x80, srcs=(1,))
        br = branch(2, srcs=(1,))
        assert ld.is_load and ld.is_memory and not ld.is_store
        assert st.is_store and st.is_memory and not st.is_load
        assert br.is_branch and not br.is_memory

    def test_byte_range_and_overlap(self):
        a = store(0, address=0x100, srcs=(1,), size=8)
        b = load(1, dest=2, address=0x104, size=4)
        c = load(2, dest=3, address=0x108, size=8)
        assert a.byte_range() == (0x100, 0x108)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_byte_range_rejected_for_non_memory(self):
        with pytest.raises(TraceError):
            int_alu(0, dest=1).byte_range()


class TestTrace:
    def test_sequence_numbers_must_be_consecutive(self):
        with pytest.raises(TraceError):
            Trace([int_alu(0, dest=1), int_alu(2, dest=2)])

    def test_len_and_iteration(self, tiny_trace):
        assert len(tiny_trace) == 6
        assert [instr.seq for instr in tiny_trace] == list(range(6))

    def test_memory_operations_iterator(self, tiny_trace):
        memory_ops = list(tiny_trace.memory_operations())
        assert len(memory_ops) == 3
        assert all(op.is_memory for op in memory_ops)

    def test_statistics(self, tiny_trace):
        stats = tiny_trace.statistics()
        assert stats.num_instructions == 6
        assert stats.num_loads == 2
        assert stats.num_stores == 1
        assert stats.num_branches == 1
        assert stats.unique_lines_touched == 2

    def test_statistics_mispredict_rate(self):
        trace = Trace([branch(0, mispredicted=True), branch(1, mispredicted=False)])
        assert trace.statistics().branch_mispredict_rate == pytest.approx(0.5)

    def test_prefix(self, tiny_trace):
        prefix = tiny_trace.prefix(3)
        assert len(prefix) == 3
        assert prefix[2].seq == 2

    def test_regions_default_empty(self, tiny_trace):
        assert tiny_trace.regions == ()


class TestRegionFootprint:
    def test_density(self):
        footprint = RegionFootprint(
            name="hot", base_address=0, size_bytes=1024, weight=0.5, pattern="stream"
        )
        assert footprint.access_density == pytest.approx(0.5 / 1024)

    def test_validation(self):
        with pytest.raises(TraceError):
            RegionFootprint(name="bad", base_address=0, size_bytes=0, weight=1.0, pattern="stream")
        with pytest.raises(TraceError):
            RegionFootprint(name="bad", base_address=-1, size_bytes=8, weight=1.0, pattern="stream")
