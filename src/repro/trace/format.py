"""The versioned binary trace container.

A recorded trace is the unit of replayable simulation input: the exact
dynamic instruction stream a workload generator produced, plus the metadata
needed to regenerate or audit it (workload parameters, generation seed,
format version).  The design goals, in order:

* **Bit-identical round trips.**  ``load_trace(save_trace(t)) == t`` down to
  every register number, address and region weight.  Replaying a loaded
  trace through :meth:`repro.sim.simulator.Simulator.run_trace` therefore
  produces a :class:`~repro.uarch.result.CoreResult` identical to simulating
  the freshly generated trace -- across processes, machines and package
  versions that speak the same format version.
* **Compactness.**  Instructions are fixed-width 22-byte records
  (struct-packed, little-endian), loaded in bulk into columns.  This
  container is the only trace file format.
* **Self-description.**  The header carries a JSON document with the trace
  name, the generation seed, the full :class:`~repro.workloads.base.WorkloadParameters`
  (when the trace came from a generator) and the region footprints the
  simulator's cache warm-up needs.  ``repro trace info FILE`` prints it.
* **Fail-loud versioning.**  The container starts with a magic string and a
  format version.  :data:`TRACE_FORMAT_VERSION` must be bumped whenever the
  record layout *or the meaning of a generated trace* changes (e.g. the
  generator's seed-derivation scheme); the experiment layer folds the same
  number into every result-cache content address, so stale cached results
  from an older format can never be served as hits.  Older container
  versions listed in :data:`SUPPORTED_TRACE_VERSIONS` remain *readable*, so
  archived recordings keep replaying.

Version-2 container layout (all integers little-endian)::

    offset  size  field
    0       8     magic  b"REPROTRC"
    8       2     format version (u16)
    10      4     header length H (u32)
    14      H     header JSON (utf-8): name, seed, params, regions, counts
    14+H    8     record count N (u64)
    22+H    ...   columnar sections, one per column of
                  repro.isa.columns.COLUMN_LAYOUT, each N * itemsize bytes:
                  iclass u8 | dest i8 | src0..src3 i8 | address u64 |
                  size u16 | flags u8 | latency u32
    ...     4     CRC-32 of the concatenated section bytes (u32)

The columnar sections load with one bulk ``frombytes`` per column, and
every load checks each row's canonical form.

Version 1 stored the same fields as 22-byte row-major records
(``<BBbbbbbQHI``: flags, iclass, dest, 4 x src, address, size, latency);
:func:`trace_from_bytes` still parses them, bulk-decoding the whole record
section with ``struct.iter_unpack`` straight into columns.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.common.errors import ConfigurationError, TraceError, WorkloadError
from repro.common.serialize import from_jsonable, to_jsonable
from repro.isa.columns import COLUMN_LAYOUT, TraceColumns
from repro.isa.trace import RegionFootprint, Trace
from repro.workloads.base import WorkloadParameters

#: Leading magic of every recorded trace file.
TRACE_FORMAT_MAGIC = b"REPROTRC"

#: Version of the trace container *and* of the meaning of a generated trace.
#: Bump on any change to the record layout, the header schema, or the
#: workload generator's derivation scheme -- the result cache folds this
#: number into every content address, so bumping it atomically invalidates
#: every cached simulation produced under the old semantics.  Version 2
#: replaced the row-major fixed-width records with columnar sections.
TRACE_FORMAT_VERSION = 2

#: Container versions this build can *read* (writing always uses the
#: current version).
SUPPORTED_TRACE_VERSIONS = (1, 2)

_HEADER_PREFIX = struct.Struct("<8sHI")
_RECORD_COUNT = struct.Struct("<Q")
_CRC = struct.Struct("<I")
#: The version-1 row-major record layout, kept for reading archived traces.
_RECORD_V1 = struct.Struct("<BBbbbbbQHI")

#: Bytes of columnar payload per instruction (sum of column item sizes).
_ROW_BYTES = sum(itemsize for _name, _typecode, itemsize in COLUMN_LAYOUT)


@dataclass(frozen=True)
class TraceHeader:
    """The self-describing metadata block of a recorded trace."""

    format_version: int
    name: str
    num_instructions: int
    #: Generation seed the trace was recorded under (``None`` for hand-built
    #: traces, or when the generator's parameter-level seed was used).
    seed: Optional[int] = None
    #: The full workload description that generated the trace, when known.
    #: Replay tooling uses it to re-derive the identical stream remotely
    #: (the service replays by regeneration, which the determinism contract
    #: makes bit-identical to shipping the bytes).
    params: Optional[WorkloadParameters] = None
    regions: Tuple[RegionFootprint, ...] = ()


@dataclass(frozen=True)
class TraceArchive:
    """A loaded recorded trace: the instruction stream plus its header."""

    header: TraceHeader
    trace: Trace


def _columns_from_v1_records(records: bytes) -> TraceColumns:
    """Bulk-decode a version-1 row-major record section into columns.

    ``struct.iter_unpack`` walks the whole section in one C-level pass, so
    replaying archived v1 traces costs a single loop of array appends
    instead of the historical per-record ``unpack`` + ``Instruction``
    construction.
    """
    columns = TraceColumns()
    append_row = columns.append_row
    for flags, code, dest, s0, s1, s2, s3, address, size, latency in _RECORD_V1.iter_unpack(
        records
    ):
        append_row(code, dest, s0, s1, s2, s3, address, size, flags, latency)
    return columns


def _header_document(trace: Trace, params, seed: Optional[int]) -> dict:
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "name": trace.name,
        "num_instructions": len(trace),
        "seed": seed,
        "params": None if params is None else to_jsonable(params),
        "regions": [to_jsonable(region) for region in trace.regions],
    }


def _parse_header(document: Any) -> TraceHeader:
    """Decode a header document with the strict wire decoder.

    Nothing is coerced (:func:`~repro.common.serialize.from_jsonable`): a
    ``seed`` of ``"7"``, a ``num_instructions`` of ``300.9`` or a ``name``
    of ``12`` is refused.  Regions decode one at a time, so a mistyped
    region names its index.  Every failure is a :class:`TraceError`.
    """
    regions = document.get("regions", []) if isinstance(document, dict) else []
    if not isinstance(regions, list):
        raise TraceError(
            "malformed trace header: regions: expected a list, "
            f"got {type(regions).__name__} {regions!r}"
        )
    try:
        header = from_jsonable(TraceHeader, {**document, "regions": []} if regions else document)
    except (ConfigurationError, WorkloadError) as exc:
        raise TraceError(f"malformed trace header: {exc}") from None
    return replace(
        header, regions=tuple(_parse_region(index, region) for index, region in enumerate(regions))
    )


def _parse_region(index: int, document: Any) -> RegionFootprint:
    """Decode one region footprint; a mistyped field names the region."""
    try:
        return from_jsonable(RegionFootprint, document)
    except ConfigurationError as exc:
        raise TraceError(f"malformed trace header: region {index}: {exc}") from None
    except TraceError as exc:  # the footprint's own checks name the region
        raise TraceError(f"malformed trace header: {exc}") from None


def _validate_prefix(prefix: bytes, label: str = "trace container") -> Tuple[int, int]:
    """Check magic and version of a container prefix.

    Returns ``(format version, header length)``.  The single definition of
    the prefix contract, shared by the full parser and the header-only
    reader so the two can never disagree about which files are valid.
    """
    if len(prefix) < _HEADER_PREFIX.size:
        raise TraceError(f"{label} is truncated (no header)")
    magic, version, header_length = _HEADER_PREFIX.unpack_from(prefix, 0)
    if magic != TRACE_FORMAT_MAGIC:
        raise TraceError(f"{label}: not a recorded trace (bad magic)")
    if version not in SUPPORTED_TRACE_VERSIONS:
        raise TraceError(
            f"{label}: trace format version {version} is not supported "
            f"(this build reads versions {SUPPORTED_TRACE_VERSIONS}); re-record the trace"
        )
    return version, header_length


def _decode_header(raw_header: bytes, label: str = "trace container") -> TraceHeader:
    """Decode and validate the header-JSON block of a container."""
    try:
        document = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{label}: malformed trace header: {exc}") from exc
    return _parse_header(document)


def trace_to_bytes(
    trace: Trace, params: Optional[WorkloadParameters] = None, seed: Optional[int] = None
) -> bytes:
    """Serialise a trace (and its provenance) to the binary container format.

    The instruction stream is written as columnar sections pulled straight
    from :meth:`Trace.columns`, so serialising a generated (column-backed)
    trace touches no instruction objects at all.
    """
    header_json = json.dumps(
        _header_document(trace, params, seed), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    columns = trace.columns()
    sections = [columns.column_bytes(name) for name, _tc, _sz in COLUMN_LAYOUT]
    crc = 0
    for section in sections:
        crc = zlib.crc32(section, crc)
    return b"".join(
        (
            _HEADER_PREFIX.pack(TRACE_FORMAT_MAGIC, TRACE_FORMAT_VERSION, len(header_json)),
            header_json,
            _RECORD_COUNT.pack(len(trace)),
            *sections,
            _CRC.pack(crc),
        )
    )


def trace_from_bytes(data: bytes) -> TraceArchive:
    """Parse a binary container produced by :func:`trace_to_bytes`.

    Validates the magic, the format version, the record count, the record
    checksum and the canonical form of every row
    (:meth:`~repro.isa.columns.TraceColumns.validate_canonical`); any
    mismatch raises :class:`TraceError` rather than silently replaying a
    different stream than was recorded.  Version-2 containers load with one
    bulk copy per column; version-1 containers are bulk-decoded with
    ``struct.iter_unpack``.
    """
    view = memoryview(data)
    version, header_length = _validate_prefix(
        bytes(view[: _HEADER_PREFIX.size]) if len(view) >= _HEADER_PREFIX.size else b""
    )
    offset = _HEADER_PREFIX.size
    if len(view) < offset + header_length:
        raise TraceError("trace container is truncated (incomplete header)")
    header = _decode_header(bytes(view[offset : offset + header_length]))
    offset += header_length
    if len(view) < offset + _RECORD_COUNT.size:
        raise TraceError("trace container is truncated (no record count)")
    (count,) = _RECORD_COUNT.unpack_from(view, offset)
    offset += _RECORD_COUNT.size
    if count != header.num_instructions:
        raise TraceError(
            f"record count {count} disagrees with header ({header.num_instructions})"
        )
    if version == 1:
        body_size = count * _RECORD_V1.size
    else:
        body_size = count * _ROW_BYTES
    if len(view) < offset + body_size + _CRC.size:
        raise TraceError("trace container is truncated (incomplete records)")
    body = view[offset : offset + body_size]
    (expected_crc,) = _CRC.unpack_from(view, offset + body_size)
    if zlib.crc32(body) != expected_crc:
        raise TraceError("trace records are corrupt (CRC mismatch)")

    if version == 1:
        columns = _columns_from_v1_records(bytes(body))
    else:
        buffers = []
        section_offset = 0
        for _name, _typecode, itemsize in COLUMN_LAYOUT:
            section_size = count * itemsize
            buffers.append(body[section_offset : section_offset + section_size])
            section_offset += section_size
        columns = TraceColumns.from_buffers(buffers)
    columns.validate_canonical()
    trace = Trace.from_columns(columns, name=header.name, regions=header.regions)
    return TraceArchive(header=header, trace=trace)


def save_trace(
    trace: Trace,
    path: Union[str, Path],
    params: Optional[WorkloadParameters] = None,
    seed: Optional[int] = None,
) -> Path:
    """Record a trace to ``path``; returns the written path.

    ``params`` (a :class:`~repro.workloads.base.WorkloadParameters`) and
    ``seed`` are provenance: they let ``repro trace submit`` replay the
    recording through the service by regeneration, and let auditors confirm
    what produced the stream.
    """
    target = Path(path)
    target.write_bytes(trace_to_bytes(trace, params=params, seed=seed))
    return target


def load_trace_archive(path: Union[str, Path]) -> TraceArchive:
    """Load a recorded trace together with its header."""
    source = Path(path)
    try:
        data = source.read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {source}: {exc}") from exc
    return trace_from_bytes(data)


def load_trace(path: Union[str, Path]) -> Trace:
    """Load just the instruction stream of a recorded trace."""
    return load_trace_archive(path).trace


def read_trace_header(path: Union[str, Path]) -> TraceHeader:
    """Read only the header of a recorded trace (cheap: records stay unparsed)."""
    source = Path(path)
    try:
        with source.open("rb") as handle:
            _version, header_length = _validate_prefix(
                handle.read(_HEADER_PREFIX.size), str(source)
            )
            raw_header = handle.read(header_length)
    except OSError as exc:
        raise TraceError(f"cannot read trace {source}: {exc}") from exc
    if len(raw_header) < header_length:
        raise TraceError(f"{source}: trace container is truncated (incomplete header)")
    return _decode_header(raw_header, str(source))


def record_trace(
    params: WorkloadParameters,
    num_instructions: int,
    path: Union[str, Path],
    seed: Optional[int] = None,
) -> TraceArchive:
    """Generate one workload's trace and record it in one step.

    The archive written is exactly what :func:`save_trace` would produce for
    :func:`repro.workloads.suite.generate_member_trace` output, so replaying
    it is bit-identical to regenerating from ``(params, num_instructions,
    seed)`` anywhere else.
    """
    from repro.workloads.suite import generate_member_trace

    trace = generate_member_trace(params, num_instructions, seed=seed)
    save_trace(trace, path, params=params, seed=seed)
    return TraceArchive(
        header=TraceHeader(
            format_version=TRACE_FORMAT_VERSION,
            name=trace.name,
            num_instructions=len(trace),
            seed=seed,
            params=params,
            regions=trace.regions,
        ),
        trace=trace,
    )
