"""Tests for the binary trace container (repro.trace).

Covers the ISSUE's acceptance surface: in-memory and on-disk round trips
preserve every instruction bit-for-bit, a saved-then-loaded trace replayed
through ``Simulator.run_trace`` produces a ``CoreResult`` identical to
simulating the freshly generated trace (for all four new workload families
and both existing SPEC-like suites), and malformed containers fail loudly
instead of replaying a different stream than was recorded.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from _helpers import TEST_SEED

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction, InstrClass
from repro.isa.trace import Trace
from repro.sim.configs import fmc_hash, ooo_64
from repro.sim.simulator import Simulator
from repro.trace import (
    TRACE_FORMAT_VERSION,
    load_trace,
    load_trace_archive,
    read_trace_header,
    record_trace,
    save_trace,
    trace_from_bytes,
    trace_to_bytes,
)
from repro.trace.format import (
    _CRC,
    _HEADER_PREFIX,
    _RECORD_COUNT,
    _RECORD_V1,
    SUPPORTED_TRACE_VERSIONS,
    TRACE_FORMAT_MAGIC,
    _header_document,
)
from repro.workloads.families import (
    branchy_filter,
    gather_scan,
    list_walk,
    long_phases,
)
from repro.workloads.spec_fp import swim_like
from repro.workloads.spec_int import mcf_like
from repro.workloads.suite import generate_member_trace

#: One representative member per new family plus one per existing suite --
#: the replay-bit-identity matrix the acceptance criteria name.
REPLAY_WORKLOADS = (
    ("pointer_chase", list_walk),
    ("streaming", gather_scan),
    ("branchy", branchy_filter),
    ("phased", long_phases),
    ("spec_fp_like", swim_like),
    ("spec_int_like", mcf_like),
)


def _traces_equal(a: Trace, b: Trace) -> bool:
    return (
        list(a) == list(b)
        and a.name == b.name
        and a.regions == b.regions
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


def test_in_memory_round_trip(small_workload_params) -> None:
    trace = generate_member_trace(small_workload_params, 1500, seed=TEST_SEED)
    archive = trace_from_bytes(
        trace_to_bytes(trace, params=small_workload_params, seed=TEST_SEED)
    )
    assert _traces_equal(archive.trace, trace)
    assert archive.header.format_version == TRACE_FORMAT_VERSION
    assert archive.header.name == trace.name
    assert archive.header.num_instructions == len(trace)
    assert archive.header.seed == TEST_SEED
    assert archive.header.params == small_workload_params
    assert archive.header.regions == trace.regions


def test_on_disk_round_trip(tmp_path: Path, small_workload_params) -> None:
    trace = generate_member_trace(small_workload_params, 1200, seed=3)
    path = save_trace(trace, tmp_path / "t.rtrace", params=small_workload_params, seed=3)
    assert _traces_equal(load_trace(path), trace)
    header = read_trace_header(path)
    assert header.num_instructions == 1200
    assert header.params == small_workload_params


def test_hand_built_trace_round_trips_without_params(tmp_path: Path, tiny_trace) -> None:
    path = save_trace(tiny_trace, tmp_path / "tiny.rtrace")
    archive = load_trace_archive(path)
    assert _traces_equal(archive.trace, tiny_trace)
    assert archive.header.params is None
    assert archive.header.seed is None


def test_every_instruction_field_survives(tmp_path: Path) -> None:
    """Edge values of every record field survive the fixed-width encoding."""
    trace = Trace(
        [
            Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=0, srcs=()),
            Instruction(seq=1, iclass=InstrClass.FP_ALU, dest=127, srcs=(0, 63, 64, 127)),
            Instruction(
                seq=2, iclass=InstrClass.BRANCH, srcs=(5,), mispredicted=True
            ),
            Instruction(
                seq=3,
                iclass=InstrClass.LOAD,
                dest=8,
                srcs=(1,),
                address=(1 << 40) + 24,
                size=4,
                latency=300,
            ),
            Instruction(
                seq=4, iclass=InstrClass.STORE, srcs=(2, 3), address=0, size=16
            ),
            Instruction(
                seq=5,
                iclass=InstrClass.LOAD,
                dest=9,
                srcs=(1, 2, 3, 4),
                address=2**64 - 1,
                size=0xFFFF,
                latency=2**32 - 1,
            ),
        ],
        name="edges",
    )
    restored = trace_from_bytes(trace_to_bytes(trace)).trace
    assert list(restored) == list(trace)


def test_record_trace_equals_generate_then_save(tmp_path: Path) -> None:
    params = swim_like()
    archive = record_trace(params, 1000, tmp_path / "w.rtrace", seed=TEST_SEED)
    reference = generate_member_trace(params, 1000, seed=TEST_SEED)
    assert _traces_equal(archive.trace, reference)
    assert _traces_equal(load_trace(tmp_path / "w.rtrace"), reference)


def test_too_many_sources_rejected() -> None:
    """A trace row holds four sources, so no instruction with five is built."""
    with pytest.raises(TraceError, match="at most 4"):
        Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, srcs=(1, 2, 3, 4, 5))


# ----------------------------------------------------------------------
# Replay bit-identity (the acceptance criterion)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite_name, factory", REPLAY_WORKLOADS, ids=[name for name, _ in REPLAY_WORKLOADS]
)
def test_replay_is_bit_identical_to_regeneration(
    tmp_path: Path, suite_name: str, factory
) -> None:
    """save -> load -> simulate == generate -> simulate, per family and suite."""
    params = factory()
    generated = generate_member_trace(params, 1500, seed=TEST_SEED)
    path = save_trace(generated, tmp_path / "replay.rtrace", params=params, seed=TEST_SEED)
    replayed = load_trace(path)
    simulator = Simulator(fmc_hash())
    fresh = simulator.run_trace(generated)
    replay = simulator.run_trace(replayed)
    assert replay == fresh  # CoreResult equality covers cycles, stats, extras
    assert replay.to_dict() == fresh.to_dict()


def test_replay_is_bit_identical_on_the_baseline_core(tmp_path: Path) -> None:
    params = mcf_like()
    generated = generate_member_trace(params, 1500, seed=TEST_SEED)
    save_trace(generated, tmp_path / "b.rtrace", params=params)
    replay = Simulator(ooo_64()).run_trace(load_trace(tmp_path / "b.rtrace"))
    fresh = Simulator(ooo_64()).run_trace(generated)
    assert replay == fresh


# ----------------------------------------------------------------------
# Archived version-1 containers stay readable
# ----------------------------------------------------------------------


def _v1_container_bytes(trace: Trace, params=None, seed=None) -> bytes:
    """Re-create the historical row-major version-1 container byte-for-byte."""
    import json
    import zlib

    document = _header_document(trace, params, seed)
    document["format_version"] = 1
    header_json = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = []
    codes = {"int_alu": 0, "fp_alu": 1, "branch": 2, "load": 3, "store": 4}
    for instruction in trace:
        flags = (
            (1 if instruction.address is not None else 0)
            | (2 if instruction.mispredicted else 0)
            | (4 if instruction.latency is not None else 0)
        )
        padded = tuple(instruction.srcs) + (-1,) * (4 - len(instruction.srcs))
        records.append(
            _RECORD_V1.pack(
                flags,
                codes[instruction.iclass.value],
                -1 if instruction.dest is None else instruction.dest,
                *padded,
                instruction.address or 0,
                instruction.size,
                instruction.latency or 0,
            )
        )
    body = b"".join(records)
    return b"".join(
        (
            _HEADER_PREFIX.pack(TRACE_FORMAT_MAGIC, 1, len(header_json)),
            header_json,
            _RECORD_COUNT.pack(len(trace)),
            body,
            _CRC.pack(zlib.crc32(body)),
        )
    )


def test_version_constants() -> None:
    assert TRACE_FORMAT_VERSION == 2
    assert TRACE_FORMAT_VERSION in SUPPORTED_TRACE_VERSIONS
    assert 1 in SUPPORTED_TRACE_VERSIONS  # archived recordings stay loadable


def test_archived_v1_container_loads_bit_identically(small_workload_params) -> None:
    """A pre-bump recording decodes to the exact same stream and replays
    identically -- the bulk ``iter_unpack`` path must not regress meaning."""
    trace = generate_member_trace(small_workload_params, 1000, seed=TEST_SEED)
    archive = trace_from_bytes(
        _v1_container_bytes(trace, params=small_workload_params, seed=TEST_SEED)
    )
    assert archive.header.format_version == 1  # reports the recorded version
    assert _traces_equal(archive.trace, trace)
    simulator = Simulator(fmc_hash())
    assert simulator.run_trace(archive.trace) == simulator.run_trace(trace)


def test_archived_v1_header_reads_without_records(tmp_path: Path, tiny_trace) -> None:
    path = tmp_path / "old.rtrace"
    path.write_bytes(_v1_container_bytes(tiny_trace))
    header = read_trace_header(path)
    assert header.format_version == 1
    assert header.num_instructions == len(tiny_trace)


def test_archived_v1_corruption_still_caught(tiny_trace) -> None:
    data = bytearray(_v1_container_bytes(tiny_trace))
    data[-6] ^= 0xFF  # inside the record section
    with pytest.raises(TraceError, match="CRC|corrupt"):
        trace_from_bytes(bytes(data))


# ----------------------------------------------------------------------
# Non-canonical containers are rejected, not mis-simulated
# ----------------------------------------------------------------------


def _mutated_v2(trace: Trace, column: str, row: int, value: int) -> bytes:
    """Container bytes for ``trace`` with one column entry overwritten
    (CRC recomputed, so only the canonical-form validation can object)."""
    import zlib
    from array import array

    from repro.isa.columns import COLUMN_LAYOUT

    blob = trace_to_bytes(trace)
    header_length = _HEADER_PREFIX.unpack_from(blob, 0)[2]
    offset = _HEADER_PREFIX.size + header_length + _RECORD_COUNT.size
    mutated = bytearray(blob)
    section_offset = offset
    for name, typecode, itemsize in COLUMN_LAYOUT:
        if name == column:
            cell = array(typecode, [value]).tobytes()
            mutated[
                section_offset + row * itemsize : section_offset + (row + 1) * itemsize
            ] = cell
            break
        section_offset += len(trace) * itemsize
    body = bytes(mutated[offset : offset + len(trace) * 21])
    _CRC.pack_into(mutated, offset + len(trace) * 21, zlib.crc32(body))
    return bytes(mutated)


@pytest.mark.parametrize(
    "column,value,match",
    [
        ("src0", -1, "left-packed"),      # absent slot before a present source
        ("flags", 0, "without an address"),  # load loses its has-address flag
        ("flags", 3, "mispredicted"),     # mispredict flag on a memory op
        ("size", 0, "size must be positive"),
        ("iclass", 9, "unknown instruction-class"),
    ],
)
def test_non_canonical_v2_rows_are_rejected(column, value, match) -> None:
    """CRC-valid but non-canonical rows must fail loudly at load: the fast
    engine's columnar assumptions and the reference walk's object
    validation would otherwise disagree about the same file."""
    trace = Trace(
        [
            Instruction(seq=0, iclass=InstrClass.INT_ALU, dest=1, srcs=()),
            Instruction(seq=1, iclass=InstrClass.LOAD, dest=2, srcs=(1, 1), address=64),
        ],
        name="canon",
    )
    with pytest.raises(TraceError, match=match):
        trace_from_bytes(_mutated_v2(trace, column, 1, value))


def test_non_canonical_v1_rows_are_rejected(tiny_trace) -> None:
    """The bulk v1 decoder keeps the historical loader's strictness."""
    import zlib

    blob = bytearray(_v1_container_bytes(tiny_trace))
    offset = len(blob) - _CRC.size - len(tiny_trace) * _RECORD_V1.size
    # Record 1 is the store: clear its has-address flag.
    blob[offset + 1 * _RECORD_V1.size] = 0
    body = bytes(blob[offset : offset + len(tiny_trace) * _RECORD_V1.size])
    _CRC.pack_into(blob, len(blob) - _CRC.size, zlib.crc32(body))
    with pytest.raises(TraceError, match="without an address"):
        trace_from_bytes(bytes(blob))


# ----------------------------------------------------------------------
# Fail-loud validation
# ----------------------------------------------------------------------


def test_bad_magic_rejected(canned_trace_file: Path) -> None:
    data = canned_trace_file.read_bytes()
    with pytest.raises(TraceError, match="bad magic"):
        trace_from_bytes(b"NOTATRCE" + data[8:])


def test_unsupported_version_rejected(canned_trace_file: Path) -> None:
    data = bytearray(canned_trace_file.read_bytes())
    magic, _version, header_len = _HEADER_PREFIX.unpack_from(bytes(data), 0)
    _HEADER_PREFIX.pack_into(data, 0, magic, TRACE_FORMAT_VERSION + 1, header_len)
    with pytest.raises(TraceError, match="version"):
        trace_from_bytes(bytes(data))
    canned_trace_file.write_bytes(bytes(data))
    with pytest.raises(TraceError, match="version"):
        read_trace_header(canned_trace_file)


def test_truncation_rejected(canned_trace_file: Path) -> None:
    data = canned_trace_file.read_bytes()
    for cut in (4, _HEADER_PREFIX.size + 10, len(data) // 2, len(data) - 2):
        with pytest.raises(TraceError, match="truncated|corrupt"):
            trace_from_bytes(data[:cut])


def test_record_corruption_rejected(canned_trace_file: Path) -> None:
    data = bytearray(canned_trace_file.read_bytes())
    # Flip a byte in the middle of the record section: CRC must catch it.
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(TraceError, match="CRC|corrupt|unknown instruction-class"):
        trace_from_bytes(bytes(data))


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its header document rewritten by ``edit(document)``."""
    import json

    _magic, version, header_length = _HEADER_PREFIX.unpack_from(blob, 0)
    start = _HEADER_PREFIX.size
    document = edit(json.loads(blob[start : start + header_length]))
    header_json = json.dumps(document).encode("utf-8")
    return b"".join(
        (
            _HEADER_PREFIX.pack(TRACE_FORMAT_MAGIC, version, len(header_json)),
            header_json,
            blob[start + header_length :],
        )
    )


def _with_region_field(blob: bytes, field: str, value) -> bytes:
    """``blob`` with one field of its first region footprint rewritten."""

    def edit(document):
        region = document["regions"][0]
        region[field] = value(region[field])
        return document

    return _with_header(blob, edit)


@pytest.mark.parametrize(
    "field, value",
    [
        ("weight", lambda _weight: float("nan")),
        ("weight", lambda _weight: float("inf")),
        ("size_bytes", float),
        ("base_address", float),
        ("line_hint", lambda _hint: True),
    ],
    ids=["nan-weight", "infinite-weight", "float-size", "float-base", "bool-line-hint"],
)
def test_malformed_region_footprints_are_rejected(
    canned_trace_file: Path, field: str, value
) -> None:
    """Region footprints come from the untrusted header and feed the warm-up."""
    blob = _with_region_field(canned_trace_file.read_bytes(), field, value)
    with pytest.raises(TraceError, match=f"malformed trace header: region .*{field}"):
        trace_from_bytes(blob)
    canned_trace_file.write_bytes(blob)
    with pytest.raises(TraceError, match="malformed trace header"):
        read_trace_header(canned_trace_file)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: {**doc, "seed": "seven"}, "seed: expected int, got str 'seven'"),
        (
            lambda doc: {**doc, "num_instructions": str(doc["num_instructions"])},
            "num_instructions: expected int, got str '1500'",
        ),
        (
            lambda doc: {**doc, "num_instructions": doc["num_instructions"] + 0.9},
            "num_instructions: expected int, got float 1500.9",
        ),
        (lambda doc: {**doc, "name": 12}, "name: expected str, got int 12"),
        (lambda doc: {**doc, "format_version": "2"}, "format_version: expected int"),
        (
            lambda doc: {**doc, "format_version": 7},
            "format_version 7 disagrees with the container's version 2",
        ),
        (lambda doc: {**doc, "regions": 5}, "regions: expected a list, got int 5"),
        (lambda doc: [doc], "expected a mapping to rebuild TraceHeader, got list"),
    ],
    ids=[
        "str-seed", "str-count", "float-count", "int-name", "str-version", "other-version",
        "int-regions", "list",
    ],
)
def test_mistyped_headers_are_rejected(canned_trace_file: Path, edit, match) -> None:
    """The header is decoded as strictly as a wire payload: nothing is coerced."""
    blob = _with_header(canned_trace_file.read_bytes(), edit)
    with pytest.raises(TraceError, match=f"malformed trace header: {match}"):
        trace_from_bytes(blob)
    canned_trace_file.write_bytes(blob)
    with pytest.raises(TraceError, match=f"malformed trace header: {match}"):
        read_trace_header(canned_trace_file)


def test_header_only_read_does_not_parse_records(canned_trace_file: Path) -> None:
    """Corrupt records do not prevent reading the header (cheap info path)."""
    data = bytearray(canned_trace_file.read_bytes())
    data[-10] ^= 0xFF
    canned_trace_file.write_bytes(bytes(data))
    header = read_trace_header(canned_trace_file)
    assert header.num_instructions == 1500
    with pytest.raises(TraceError):
        load_trace_archive(canned_trace_file)
