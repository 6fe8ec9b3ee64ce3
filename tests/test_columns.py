"""Tests for the columnar trace layer (repro.isa.columns).

Covers columnar <-> object conversion (faithful for every column on fuzzed
streams), the generator's native columnar emission (bit-identical to the
forced object path), and streams outside the columnar envelope (more than
four sources, fields overflowing a column), which fall back to the reference
walk instead of mis-simulating.  Container loading is covered in
``tests/test_trace_format.py``.
"""

from __future__ import annotations

import random

import pytest
from _helpers import TEST_SEED

from repro.common.errors import TraceError
from repro.isa.columns import COLUMN_LAYOUT, MAX_SRCS, TraceColumns
from repro.isa.instruction import InstrClass, Instruction
from repro.isa.trace import Trace
from repro.sim.configs import fmc_hash, ooo_64
from repro.sim.simulator import Simulator
from repro.workloads.families import family_suites
from repro.workloads.suite import generate_member_trace, quick_fp_suite, quick_int_suite


def _fuzzed_instructions(rng: random.Random, count: int) -> list:
    """A random stream exercising every field and edge value of the layout."""
    instructions = []
    for seq in range(count):
        iclass = rng.choice(list(InstrClass))
        dest = rng.choice([None, 0, 5, 63, 64, 127])
        srcs = tuple(
            rng.randrange(128) for _ in range(rng.randrange(MAX_SRCS + 1))
        )
        if iclass in (InstrClass.LOAD, InstrClass.STORE):
            if iclass is InstrClass.STORE:
                dest = None
            elif dest is None:
                dest = rng.randrange(128)
            instructions.append(
                Instruction(
                    seq=seq,
                    iclass=iclass,
                    dest=dest,
                    srcs=srcs,
                    address=rng.choice([0, 8, 1 << 20, (1 << 44) + 16]),
                    size=rng.choice([1, 4, 8, 64]),
                )
            )
        elif iclass is InstrClass.BRANCH:
            instructions.append(
                Instruction(
                    seq=seq,
                    iclass=iclass,
                    dest=None,
                    srcs=srcs,
                    mispredicted=rng.random() < 0.5,
                )
            )
        else:
            instructions.append(
                Instruction(
                    seq=seq,
                    iclass=iclass,
                    dest=dest,
                    srcs=srcs,
                    latency=rng.choice([None, 0, 1, 17, 4000]),
                )
            )
    return instructions


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_columnar_object_round_trip_is_faithful(seed: int) -> None:
    """columns(objects) -> objects reproduces every field of every record."""
    instructions = _fuzzed_instructions(random.Random(seed), 300)
    columns = TraceColumns.from_instructions(instructions)
    assert len(columns) == len(instructions)
    assert columns.to_instructions() == instructions
    # Single-row materialisation agrees with the bulk path.
    for seq in (0, len(instructions) // 2, len(instructions) - 1):
        assert columns.instruction(seq) == instructions[seq]


def test_generated_traces_are_column_backed_and_lazy() -> None:
    member = list(quick_int_suite())[0]
    trace = generate_member_trace(member, 400, seed=TEST_SEED)
    assert trace._instructions is None  # nothing materialised yet
    assert len(trace) == 400
    assert trace.statistics().num_instructions == 400
    assert trace._instructions is None  # statistics ran off the columns
    instructions = list(trace)
    assert [instr.seq for instr in instructions] == list(range(400))


@pytest.mark.parametrize(
    "member_factory",
    [
        lambda: list(quick_int_suite())[0],
        lambda: list(quick_fp_suite())[1],
        lambda: list(family_suites()["phased"])[0],
        lambda: list(family_suites()["pointer_chase"])[0],
    ],
    ids=["int", "fp", "phased", "pointer_chase"],
)
def test_columnar_generation_matches_forced_object_path(member_factory) -> None:
    """Materialising the object list changes storage, never the stream."""
    member = member_factory()
    columnar = generate_member_trace(member, 700, seed=TEST_SEED)
    eager = generate_member_trace(member, 700, seed=TEST_SEED)
    eager.instructions()
    assert eager._instructions is not None  # the object path is materialised
    assert list(columnar) == list(eager)
    assert columnar.regions == eager.regions
    assert columnar.columns() == eager.columns()


def test_object_built_trace_derives_identical_columns() -> None:
    """Trace(list) -> columns() -> objects round-trips through the Trace API."""
    member = list(quick_int_suite())[1]
    generated = generate_member_trace(member, 300, seed=TEST_SEED)
    rebuilt = Trace(list(generated), name=generated.name, regions=generated.regions)
    assert rebuilt.columns() == generated.columns()
    result_columns = Simulator(fmc_hash()).run_trace(generated)
    result_objects = Simulator(fmc_hash()).run_trace(rebuilt)
    assert result_columns == result_objects


def test_too_many_sources_rejected_by_columns() -> None:
    crowded = [Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, srcs=(1, 2, 3, 4, 5))]
    with pytest.raises(TraceError, match="at most 4"):
        TraceColumns.from_instructions(crowded)


@pytest.mark.parametrize(
    "oddball",
    [
        # More than four sources: rejected by the columnar layout.
        Instruction(seq=1, iclass=InstrClass.INT_ALU, dest=2, srcs=(1, 1, 1, 1, 1)),
        # Access size above the u16 column: overflows array.append.
        Instruction(seq=1, iclass=InstrClass.LOAD, dest=2, srcs=(1,), address=0, size=70_000),
        # Latency above the u32 column.
        Instruction(seq=1, iclass=InstrClass.INT_ALU, dest=2, srcs=(1,), latency=2**32),
    ],
    ids=["five-sources", "huge-size", "huge-latency"],
)
def test_fast_engine_falls_back_for_uncolumnable_traces(oddball) -> None:
    """Streams outside the columnar envelope (too many sources, fields
    overflowing the fixed column widths) must still simulate under the
    default engine, bit-identically, via the reference walk."""
    trace = Trace(
        [
            Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, srcs=()),
            oddball,
            Instruction(seq=2, iclass=InstrClass.LOAD, dest=3, srcs=(2,), address=64),
        ],
        name="oddball",
    )
    fast = Simulator(ooo_64()).run_trace(trace)
    reference = Simulator(ooo_64().with_engine("reference")).run_trace(trace)
    assert fast == reference


def test_column_layout_is_stable() -> None:
    """The serialised column order is a format contract; changing it requires
    a trace-format version bump (this test is the tripwire)."""
    assert [name for name, _tc, _sz in COLUMN_LAYOUT] == [
        "iclass", "dest", "src0", "src1", "src2", "src3",
        "address", "size", "flags", "latency",
    ]
    assert sum(size for _n, _tc, size in COLUMN_LAYOUT) == 21
