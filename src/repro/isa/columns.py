"""Columnar (structure-of-arrays) representation of an instruction stream.

The object API -- a Python list of
:class:`~repro.isa.instruction.Instruction` dataclasses -- is the right
interface for building, validating and inspecting traces, but it is the
wrong *storage* for the hot paths: a 30k-instruction trace costs 30k frozen
dataclass allocations to generate, 30k attribute walks per simulated pass,
and a deep pickle to cross a process boundary.  :class:`TraceColumns` stores
the same information as ten parallel typed columns (stdlib :mod:`array`
buffers), one entry per instruction:

======== ======== =======================================================
column   typecode meaning
======== ======== =======================================================
iclass   ``B``    instruction-class code (see :data:`ICLASS_BY_CODE`)
dest     ``b``    destination register, ``-1`` when absent
src0..3  ``b``    source registers in order, ``-1`` padding
address  ``Q``    byte address of a memory access, ``0`` when absent
size     ``H``    access size in bytes
flags    ``B``    bit0 has-address, bit1 mispredicted, bit2 has-latency
latency  ``I``    execution-latency override, ``0`` when absent
======== ======== =======================================================

The sequence number is implicit (an instruction's position in the columns),
which the :class:`~repro.isa.trace.Trace` constructor has always enforced
anyway.  The class-code table and the flag bits deliberately match the
binary trace container (:mod:`repro.trace.format`), so a recorded trace
loads into columns with one bulk ``frombytes`` copy per column.

Conversion is faithful in both directions:
:meth:`TraceColumns.from_instructions` / :meth:`TraceColumns.to_instructions`
round-trip every field bit-for-bit (property-tested in
``tests/test_columns.py``).  The columns themselves carry no per-record
validation; materialising an :class:`~repro.isa.instruction.Instruction`
re-runs the full dataclass validation.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, List, Sequence, Tuple

from repro.common.errors import TraceError
from repro.isa.instruction import MAX_SRCS, InstrClass, Instruction

#: Stable instruction-class codes, shared with the binary trace container.
#: Appending is fine; reordering is a format change.
ICLASS_BY_CODE: Tuple[InstrClass, ...] = (
    InstrClass.INT_ALU,
    InstrClass.FP_ALU,
    InstrClass.BRANCH,
    InstrClass.LOAD,
    InstrClass.STORE,
)
CODE_BY_ICLASS = {iclass: code for code, iclass in enumerate(ICLASS_BY_CODE)}

#: Codes the engines special-case, exported so drive loops can bind them to
#: locals instead of re-deriving them from the enum.
CODE_INT_ALU = CODE_BY_ICLASS[InstrClass.INT_ALU]
CODE_FP_ALU = CODE_BY_ICLASS[InstrClass.FP_ALU]
CODE_BRANCH = CODE_BY_ICLASS[InstrClass.BRANCH]
CODE_LOAD = CODE_BY_ICLASS[InstrClass.LOAD]
CODE_STORE = CODE_BY_ICLASS[InstrClass.STORE]

FLAG_HAS_ADDRESS = 1 << 0
FLAG_MISPREDICTED = 1 << 1
FLAG_HAS_LATENCY = 1 << 2

#: (attribute, array typecode, itemsize) for every column, in the stable
#: order the binary container serialises them.
COLUMN_LAYOUT: Tuple[Tuple[str, str, int], ...] = (
    ("iclass", "B", 1),
    ("dest", "b", 1),
    ("src0", "b", 1),
    ("src1", "b", 1),
    ("src2", "b", 1),
    ("src3", "b", 1),
    ("address", "Q", 8),
    ("size", "H", 2),
    ("flags", "B", 1),
    ("latency", "I", 4),
)

# The container format promises fixed little-endian widths; stdlib array
# typecodes map to C types, so pin the assumption loudly rather than writing
# unreadable files on an exotic ABI.
for _name, _typecode, _itemsize in COLUMN_LAYOUT:
    if array(_typecode).itemsize != _itemsize:
        raise ImportError(
            f"array typecode {_typecode!r} has itemsize {array(_typecode).itemsize} "
            f"on this platform; the columnar trace layout requires {_itemsize}"
        )

_NEEDS_BYTESWAP = sys.byteorder == "big"


class TraceColumns:
    """Parallel typed columns describing one instruction stream.

    Every column is a stdlib :class:`array.array`, whether built in-process
    or loaded from a container via :meth:`from_buffers`; it indexes to plain
    integers, which is all the drive loops consume.
    """

    __slots__ = (
        "iclass",
        "dest",
        "src0",
        "src1",
        "src2",
        "src3",
        "address",
        "size",
        "flags",
        "latency",
    )

    def __init__(self) -> None:
        for name, typecode, _itemsize in COLUMN_LAYOUT:
            setattr(self, name, array(typecode))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]) -> "TraceColumns":
        """Build columns from instruction objects (each field copied out)."""
        columns = cls()
        append = columns.append_row
        code_by_iclass = CODE_BY_ICLASS
        for instruction in instructions:
            srcs = instruction.srcs
            padded = tuple(srcs) + (-1,) * (MAX_SRCS - len(srcs))
            flags = 0
            if instruction.address is not None:
                flags |= FLAG_HAS_ADDRESS
            if instruction.mispredicted:
                flags |= FLAG_MISPREDICTED
            if instruction.latency is not None:
                flags |= FLAG_HAS_LATENCY
            append(
                code_by_iclass[instruction.iclass],
                -1 if instruction.dest is None else instruction.dest,
                padded[0],
                padded[1],
                padded[2],
                padded[3],
                instruction.address or 0,
                instruction.size,
                flags,
                instruction.latency or 0,
            )
        return columns

    @classmethod
    def from_buffers(cls, buffers: Sequence) -> "TraceColumns":
        """Load columns from little-endian per-column byte buffers.

        ``buffers`` supplies one buffer per :data:`COLUMN_LAYOUT` entry, in
        layout order (the sections of a loaded container); each is copied
        into its column with one bulk ``frombytes``.
        """
        if len(buffers) != len(COLUMN_LAYOUT):
            raise TraceError(
                f"expected {len(COLUMN_LAYOUT)} column buffers, got {len(buffers)}"
            )
        columns = cls()
        length = None
        for (name, _typecode, _itemsize), buffer in zip(COLUMN_LAYOUT, buffers):
            column = getattr(columns, name)
            column.frombytes(buffer)
            if _NEEDS_BYTESWAP and column.itemsize > 1:  # pragma: no cover - BE hosts
                column.byteswap()
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise TraceError(
                    f"column {name!r} holds {len(column)} entries, expected {length}"
                )
        return columns

    def append_row(
        self,
        iclass_code: int,
        dest: int,
        src0: int,
        src1: int,
        src2: int,
        src3: int,
        address: int,
        size: int,
        flags: int,
        latency: int,
    ) -> None:
        """Append one instruction row (generator hot path)."""
        self.iclass.append(iclass_code)
        self.dest.append(dest)
        self.src0.append(src0)
        self.src1.append(src1)
        self.src2.append(src2)
        self.src3.append(src3)
        self.address.append(address)
        self.size.append(size)
        self.flags.append(flags)
        self.latency.append(latency)

    # ------------------------------------------------------------------
    # Introspection and conversion back to objects
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.iclass)

    def validate_canonical(self) -> None:
        """Reject streams no canonical writer produces (loader fail-loud path).

        The drive loops assume the invariants every in-process builder
        upholds: known class codes, sources left-packed (no absent slot
        before a present one), the has-address flag agreeing with the
        instruction class, misprediction only on branches, and positive
        memory access sizes.  A crafted or corrupted container violating
        them would otherwise simulate *differently* under the columnar fast
        loop than under the object-materialising reference walk -- exactly
        the divergence the engines promise cannot happen -- so container
        loading rejects such rows up front.
        """
        iclass = self.iclass
        if len(iclass) and max(iclass) >= len(ICLASS_BY_CODE):
            raise TraceError(f"unknown instruction-class code {max(iclass)} in columns")
        flags = self.flags
        src0 = self.src0
        src1 = self.src1
        src2 = self.src2
        src3 = self.src3
        size = self.size
        for seq in range(len(iclass)):
            code = iclass[seq]
            row_flags = flags[seq]
            if code == CODE_LOAD or code == CODE_STORE:
                if not row_flags & FLAG_HAS_ADDRESS:
                    raise TraceError(f"row {seq}: memory operation without an address")
                if size[seq] == 0:
                    raise TraceError(f"row {seq}: memory access size must be positive")
            elif row_flags & FLAG_HAS_ADDRESS:
                raise TraceError(f"row {seq}: non-memory instruction carries an address")
            if row_flags & FLAG_MISPREDICTED and code != CODE_BRANCH:
                raise TraceError(f"row {seq}: only branches may be marked mispredicted")
            if src0[seq] < 0:
                if src1[seq] >= 0 or src2[seq] >= 0 or src3[seq] >= 0:
                    raise TraceError(f"row {seq}: source registers are not left-packed")
            elif src1[seq] < 0:
                if src2[seq] >= 0 or src3[seq] >= 0:
                    raise TraceError(f"row {seq}: source registers are not left-packed")
            elif src2[seq] < 0 and src3[seq] >= 0:
                raise TraceError(f"row {seq}: source registers are not left-packed")

    def srcs_tuple(self, seq: int) -> Tuple[int, ...]:
        """The source-register tuple of row ``seq`` (padding stripped)."""
        return tuple(
            src
            for src in (self.src0[seq], self.src1[seq], self.src2[seq], self.src3[seq])
            if src >= 0
        )

    def instruction(self, seq: int) -> Instruction:
        """Materialise row ``seq`` as a fully validated instruction object."""
        code = self.iclass[seq]
        try:
            iclass = ICLASS_BY_CODE[code]
        except IndexError:
            raise TraceError(f"row {seq}: unknown instruction-class code {code}") from None
        dest = self.dest[seq]
        flags = self.flags[seq]
        return Instruction(
            seq=seq,
            iclass=iclass,
            dest=None if dest < 0 else dest,
            srcs=self.srcs_tuple(seq),
            address=self.address[seq] if flags & FLAG_HAS_ADDRESS else None,
            size=self.size[seq],
            mispredicted=bool(flags & FLAG_MISPREDICTED),
            latency=self.latency[seq] if flags & FLAG_HAS_LATENCY else None,
        )

    def to_instructions(self) -> List[Instruction]:
        """Materialise every row (used when object-API callers need the list)."""
        return [self.instruction(seq) for seq in range(len(self))]

    # ------------------------------------------------------------------
    # Serialisation support
    # ------------------------------------------------------------------

    def column_bytes(self, name: str) -> bytes:
        """Little-endian raw bytes of one column (container serialisation)."""
        column = getattr(self, name)
        if _NEEDS_BYTESWAP and column.itemsize > 1:  # pragma: no cover - BE hosts
            swapped = array(column.typecode, column)
            swapped.byteswap()
            return swapped.tobytes()
        return column.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return all(
            self.column_bytes(name) == other.column_bytes(name)
            for name, _tc, _sz in COLUMN_LAYOUT
        )

    def __repr__(self) -> str:
        return f"TraceColumns({len(self)} instructions)"
