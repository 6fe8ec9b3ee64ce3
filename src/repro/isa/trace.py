"""Trace containers and summary statistics.

A :class:`Trace` is an immutable, validated sequence of
:class:`~repro.isa.instruction.Instruction` records in program order.  It is
the unit of work handed to a processor model.  Traces can be built from any
iterable of instructions (typically a workload generator), summarised with
:class:`TraceStatistics` and sliced; the binary container of
:mod:`repro.trace.format` records and replays them.

A trace has two interchangeable storage forms: the instruction-object list
(the historical representation) and the columnar structure-of-arrays form
(:class:`~repro.isa.columns.TraceColumns`), which the workload generators
emit natively, the binary container loads in bulk, and the ``fast``
simulation engine drives directly.  :meth:`Trace.columns` and the lazy
object materialisation convert between the two on demand and cache the
result, so either API can be used on any trace without the other being paid
for up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.columns import TraceColumns


@dataclass(frozen=True)
class RegionFootprint:
    """Location and access statistics of one data region of a trace.

    Synthetic workloads attach one footprint per memory region so the
    simulator can perform a *region-aware functional cache warm-up*: regions
    are replayed into the hierarchy in increasing access-density order before
    the timed run, leaving the caches in the steady state a long execution
    would have reached (dense, small structures resident; structures larger
    than a level still missing).
    """

    name: str
    base_address: int
    size_bytes: int
    weight: float
    pattern: str
    line_hint: int = 32

    def __post_init__(self) -> None:
        # Footprints from untrusted trace headers are type-checked by the
        # decoder (repro.common.serialize.from_jsonable) before they get here.
        if self.size_bytes <= 0:
            raise TraceError(f"region {self.name!r}: size must be positive")
        if self.base_address < 0:
            raise TraceError(f"region {self.name!r}: base address must be non-negative")
        if not 0.0 <= self.weight < math.inf:
            raise TraceError(
                f"region {self.name!r}: weight must be finite and non-negative, got {self.weight}"
            )

    @property
    def access_density(self) -> float:
        """Relative access probability per byte (used to order warm-up)."""
        return self.weight / self.size_bytes


@dataclass(frozen=True)
class TraceStatistics:
    """Aggregate composition statistics of a trace."""

    num_instructions: int
    num_loads: int
    num_stores: int
    num_branches: int
    num_int_alu: int
    num_fp_alu: int
    num_mispredicted_branches: int
    unique_lines_touched: int

    @property
    def load_fraction(self) -> float:
        """Fraction of instructions that are loads."""
        if self.num_instructions == 0:
            return 0.0
        return self.num_loads / self.num_instructions

    @property
    def store_fraction(self) -> float:
        """Fraction of instructions that are stores."""
        if self.num_instructions == 0:
            return 0.0
        return self.num_stores / self.num_instructions

    @property
    def branch_fraction(self) -> float:
        """Fraction of instructions that are branches."""
        if self.num_instructions == 0:
            return 0.0
        return self.num_branches / self.num_instructions

    @property
    def branch_mispredict_rate(self) -> float:
        """Fraction of branches that were mispredicted."""
        if self.num_branches == 0:
            return 0.0
        return self.num_mispredicted_branches / self.num_branches


class Trace:
    """An immutable program-order sequence of instructions.

    Parameters
    ----------
    instructions:
        The instructions in program order.  Sequence numbers must be the
        consecutive integers ``0, 1, 2, ...``; the constructor validates this
        so that downstream structures may index by ``seq`` directly.
    name:
        Optional human-readable name (e.g. the workload that produced it).
    """

    def __init__(
        self,
        instructions: Iterable[Instruction],
        name: str = "trace",
        regions: Tuple[RegionFootprint, ...] = (),
    ) -> None:
        self._instructions: Optional[List[Instruction]] = list(instructions)
        self._name = name
        self._regions = tuple(regions)
        self._columns: Optional["TraceColumns"] = None
        for index, instruction in enumerate(self._instructions):
            if instruction.seq != index:
                raise TraceError(
                    f"trace {name!r}: instruction at position {index} has seq "
                    f"{instruction.seq}; sequence numbers must be consecutive from zero"
                )

    @classmethod
    def from_columns(
        cls,
        columns: "TraceColumns",
        name: str = "trace",
        regions: Tuple[RegionFootprint, ...] = (),
    ) -> "Trace":
        """Build a trace directly over columnar storage.

        Instruction objects are materialised lazily, only if an object-API
        consumer asks for them; the fast engine and the binary container
        operate on the columns alone.  Sequence numbers are positional by
        construction, so the consecutive-``seq`` validation the object
        constructor performs holds trivially.
        """
        trace = cls.__new__(cls)
        trace._instructions = None
        trace._columns = columns
        trace._name = name
        trace._regions = tuple(regions)
        return trace

    def columns(self) -> "TraceColumns":
        """The columnar form of this trace (built once, then cached)."""
        if self._columns is None:
            from repro.isa.columns import TraceColumns

            self._columns = TraceColumns.from_instructions(self._instructions)
        return self._columns

    def _materialize(self) -> List[Instruction]:
        if self._instructions is None:
            self._instructions = self._columns.to_instructions()
        return self._instructions

    @property
    def name(self) -> str:
        """Human-readable name of the trace."""
        return self._name

    @property
    def regions(self) -> Tuple[RegionFootprint, ...]:
        """Data-region footprints for cache warm-up (empty for hand-built traces)."""
        return self._regions

    def __len__(self) -> int:
        if self._instructions is not None:
            return len(self._instructions)
        return len(self._columns)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._materialize())

    def __getitem__(self, index: Union[int, slice]) -> Union[Instruction, Sequence[Instruction]]:
        return self._materialize()[index]

    def instructions(self) -> Sequence[Instruction]:
        """Return the underlying instruction list (do not mutate)."""
        return self._materialize()

    def memory_operations(self) -> Iterator[Instruction]:
        """Iterate over the loads and stores of the trace in program order."""
        for instruction in self._materialize():
            if instruction.is_memory:
                yield instruction

    def statistics(self, line_size: int = 32) -> TraceStatistics:
        """Compute composition statistics; lines are counted at ``line_size`` granularity."""
        from repro.isa.columns import (
            CODE_BRANCH,
            CODE_FP_ALU,
            CODE_LOAD,
            CODE_STORE,
            FLAG_MISPREDICTED,
        )

        columns = self.columns()
        iclass = columns.iclass
        flags = columns.flags
        address = columns.address
        loads = stores = branches = fp_ops = mispredicts = 0
        lines = set()
        for seq in range(len(iclass)):
            code = iclass[seq]
            if code == CODE_LOAD:
                loads += 1
                lines.add(address[seq] // line_size)
            elif code == CODE_STORE:
                stores += 1
                lines.add(address[seq] // line_size)
            elif code == CODE_BRANCH:
                branches += 1
                if flags[seq] & FLAG_MISPREDICTED:
                    mispredicts += 1
            elif code == CODE_FP_ALU:
                fp_ops += 1
        total = len(iclass)
        return TraceStatistics(
            num_instructions=total,
            num_loads=loads,
            num_stores=stores,
            num_branches=branches,
            num_int_alu=total - loads - stores - branches - fp_ops,
            num_fp_alu=fp_ops,
            num_mispredicted_branches=mispredicts,
            unique_lines_touched=len(lines),
        )

    def prefix(self, length: int, name: Optional[str] = None) -> "Trace":
        """Return a new trace containing the first ``length`` instructions."""
        if length < 0:
            raise TraceError(f"prefix length must be non-negative, got {length}")
        return Trace(
            self._materialize()[:length],
            name=name if name is not None else f"{self._name}[:{length}]",
        )
