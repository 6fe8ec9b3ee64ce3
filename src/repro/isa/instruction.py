"""The dynamic instruction record replayed by the timing models.

The reproduction does not interpret a real ISA.  Instead every dynamic
instruction is described by the information the timing models and the ELSQ
actually consume:

* its class (integer ALU, floating-point ALU, branch, load, store),
* the architectural registers it reads and writes (dependences),
* for memory operations, the byte address and access size,
* for branches, whether the branch was mispredicted at fetch time,
* an optional execution latency override.

Registers are plain integers.  Integer registers occupy ``0 ..
FP_REGISTER_BASE-1`` and floating point registers ``FP_REGISTER_BASE ..``.
The split only matters for issue-queue accounting and for workload realism;
the dependence tracking itself is register-space agnostic.

The module also provides small factory helpers (:func:`int_alu`,
:func:`load`, ...) that the workload generators use to keep construction
readable and validated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import TraceError

#: First register index considered a floating-point register.
FP_REGISTER_BASE = 64

#: Total number of architectural registers (integer + floating point).
NUM_ARCH_REGISTERS = 128

#: The widest values one row of a columnar trace holds
#: (:data:`repro.isa.columns.COLUMN_LAYOUT`): four source registers, a u64
#: address, a u16 access size and a u32 latency.  An instruction outside
#: them cannot be simulated, so it is refused when it is built.
MAX_SRCS = 4
MAX_ADDRESS = 2**64 - 1
MAX_ACCESS_SIZE = 0xFFFF
MAX_LATENCY = 2**32 - 1


class InstrClass(enum.Enum):
    """The instruction classes distinguished by the timing model."""

    INT_ALU = "int_alu"
    FP_ALU = "fp_alu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"

    @property
    def is_memory(self) -> bool:
        """Whether the instruction accesses memory."""
        return self in (InstrClass.LOAD, InstrClass.STORE)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One committed dynamic instruction.

    Attributes
    ----------
    seq:
        Position in the dynamic instruction stream, starting at zero and
        strictly increasing within a trace.
    iclass:
        The instruction class.
    dest:
        Destination architectural register, or ``None`` for instructions that
        do not produce a register value (stores and branches).
    srcs:
        Source architectural registers.  For loads these are the address
        operands; for stores the address operands plus the data operand.
    address:
        Byte address for memory operations, ``None`` otherwise.
    size:
        Access size in bytes for memory operations (defaults to 8).
    mispredicted:
        For branches, whether the branch was mispredicted at fetch time.
    latency:
        Optional execution-latency override.  When ``None`` the core applies
        its per-class default (Table 1 latencies).
    """

    seq: int
    iclass: InstrClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    address: Optional[int] = None
    size: int = 8
    mispredicted: bool = False
    latency: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise TraceError(f"instruction seq must be non-negative, got {self.seq}")
        if self.iclass.is_memory:
            if self.address is None:
                raise TraceError(f"{self.iclass.value} at seq {self.seq} is missing an address")
            if self.address < 0:
                raise TraceError(f"memory address must be non-negative, got {self.address}")
            if self.size <= 0:
                raise TraceError(f"memory access size must be positive, got {self.size}")
        else:
            if self.address is not None:
                raise TraceError(
                    f"{self.iclass.value} at seq {self.seq} must not carry an address"
                )
        if self.mispredicted and self.iclass is not InstrClass.BRANCH:
            raise TraceError("only branches may be marked mispredicted")
        if self.dest is not None and not 0 <= self.dest < NUM_ARCH_REGISTERS:
            raise TraceError(f"destination register {self.dest} out of range")
        if len(self.srcs) > MAX_SRCS:
            raise TraceError(
                f"instruction {self.seq} has {len(self.srcs)} sources; a trace row "
                f"holds at most {MAX_SRCS}"
            )
        for src in self.srcs:
            if not 0 <= src < NUM_ARCH_REGISTERS:
                raise TraceError(f"source register {src} out of range")
        if self.address is not None and self.address > MAX_ADDRESS:
            raise TraceError(f"memory address {self.address} does not fit 64 bits")
        if not 0 <= self.size <= MAX_ACCESS_SIZE:
            raise TraceError(
                f"access size must be in [0, {MAX_ACCESS_SIZE}] bytes, got {self.size}"
            )
        if self.latency is not None and not 0 <= self.latency <= MAX_LATENCY:
            raise TraceError(
                f"latency override must be in [0, {MAX_LATENCY}], got {self.latency}"
            )

    @property
    def is_load(self) -> bool:
        """Whether this instruction is a load."""
        return self.iclass is InstrClass.LOAD

    @property
    def is_store(self) -> bool:
        """Whether this instruction is a store."""
        return self.iclass is InstrClass.STORE

    @property
    def is_memory(self) -> bool:
        """Whether this instruction is a load or a store."""
        return self.iclass.is_memory

    @property
    def is_branch(self) -> bool:
        """Whether this instruction is a branch."""
        return self.iclass is InstrClass.BRANCH

    def byte_range(self) -> Tuple[int, int]:
        """Return the half-open ``[start, end)`` byte range touched by a memory op."""
        if not self.is_memory:
            raise TraceError(f"instruction {self.seq} is not a memory operation")
        assert self.address is not None
        return self.address, self.address + self.size

    def overlaps(self, other: "Instruction") -> bool:
        """Whether two memory operations touch at least one common byte."""
        start_a, end_a = self.byte_range()
        start_b, end_b = other.byte_range()
        return start_a < end_b and start_b < end_a


def int_alu(seq: int, dest: int, srcs: Tuple[int, ...] = (), latency: Optional[int] = None) -> Instruction:
    """Create an integer ALU instruction."""
    return Instruction(seq=seq, iclass=InstrClass.INT_ALU, dest=dest, srcs=srcs, latency=latency)


def fp_alu(seq: int, dest: int, srcs: Tuple[int, ...] = (), latency: Optional[int] = None) -> Instruction:
    """Create a floating-point ALU instruction."""
    return Instruction(seq=seq, iclass=InstrClass.FP_ALU, dest=dest, srcs=srcs, latency=latency)


def branch(seq: int, srcs: Tuple[int, ...] = (), mispredicted: bool = False) -> Instruction:
    """Create a conditional branch instruction."""
    return Instruction(
        seq=seq, iclass=InstrClass.BRANCH, dest=None, srcs=srcs, mispredicted=mispredicted
    )


def load(
    seq: int,
    dest: int,
    address: int,
    srcs: Tuple[int, ...] = (),
    size: int = 8,
) -> Instruction:
    """Create a load instruction reading ``size`` bytes at ``address``."""
    return Instruction(
        seq=seq, iclass=InstrClass.LOAD, dest=dest, srcs=srcs, address=address, size=size
    )


def store(
    seq: int,
    address: int,
    srcs: Tuple[int, ...] = (),
    size: int = 8,
) -> Instruction:
    """Create a store instruction writing ``size`` bytes at ``address``."""
    return Instruction(
        seq=seq, iclass=InstrClass.STORE, dest=None, srcs=srcs, address=address, size=size
    )
