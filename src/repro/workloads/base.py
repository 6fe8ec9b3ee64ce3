"""The parameterised synthetic workload generator.

A :class:`SyntheticWorkload` turns a :class:`WorkloadParameters` description
into a :class:`~repro.isa.trace.Trace`.  The generator models a program as a
stream of *dependence-carrying* instructions over a set of memory regions:

* **Regions** (:class:`MemoryRegion`) describe the data footprint.  Each
  region has a size, an access pattern (sequential streaming or random) and a
  relative weight.  Small regions fit in the caches and produce hits; large
  regions produce L2 misses.  Because the cache behaviour is decided by the
  simulated hierarchy -- not by the generator -- the same trace exhibits
  different miss rates under different cache configurations, which is what
  Figures 8b/c and 11 require.

* **Pointer chasing** wires the address operand of a load (or, rarely, a
  store) to the destination register of a recent load from a *far* region.
  Under simulation that recent load misses, so the dependent address
  calculation resolves only after the miss returns -- these are exactly the
  paper's *low-locality* memory instructions (Figure 1).

* **Store→load forwarding** makes a load read an address recently written by
  a store, at a configurable instruction distance, reproducing the local
  versus distant forwarding mix the two-level disambiguation exploits.

* **Branches** are mispredicted with a configurable rate, and a configurable
  fraction of the mispredicted branches depends on a far load -- this is the
  mechanism that limits SPEC-INT-like speedups on large windows.

The generator is deliberately *structural*: it encodes dependences and
addresses, never cycle counts.  All timing emerges from the processor models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.common.rng import DeterministicRng
from repro.isa.columns import (
    CODE_BRANCH,
    CODE_FP_ALU,
    CODE_INT_ALU,
    CODE_LOAD,
    CODE_STORE,
    FLAG_HAS_ADDRESS,
    FLAG_MISPREDICTED,
    TraceColumns,
)
from repro.isa.instruction import FP_REGISTER_BASE, InstrClass
from repro.isa.trace import RegionFootprint, Trace


def _pad4(srcs: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    """Pad a source tuple (at most four registers) to the fixed column width."""
    count = len(srcs)
    if count == 0:
        return (-1, -1, -1, -1)
    if count == 1:
        return (srcs[0], -1, -1, -1)
    if count == 2:
        return (srcs[0], srcs[1], -1, -1)
    if count == 3:
        return (srcs[0], srcs[1], srcs[2], -1)
    return (srcs[0], srcs[1], srcs[2], srcs[3])

#: Integer registers reserved as always-available base registers (stack/global
#: pointers).  They are written once at the start of a trace and then only
#: read, so address calculations using them are always high-locality.
_NUM_BASE_REGISTERS = 8

#: General-purpose integer destination registers available for renaming-style
#: round-robin allocation by the generator.
_INT_DEST_REGISTERS = tuple(range(_NUM_BASE_REGISTERS, 56))

#: Registers reserved for the results of far-region (and pointer-chased)
#: loads.  Only such loads write them, so a later chased load or
#: miss-dependent branch that reads one genuinely depends on the missing load
#: -- the ``p = p->next`` pattern -- instead of on whatever instruction last
#: recycled an ordinary destination register.
_POINTER_REGISTERS = tuple(range(56, 64))

#: Floating point destination registers.
_FP_DEST_REGISTERS = tuple(range(FP_REGISTER_BASE, FP_REGISTER_BASE + 48))

#: Base registers (always ready).
_BASE_REGISTERS = tuple(range(_NUM_BASE_REGISTERS))


@dataclass(frozen=True)
class MemoryRegion:
    """One region of the synthetic program's data footprint.

    Attributes
    ----------
    name:
        Identifier used in diagnostics.
    size_bytes:
        Region capacity.  Regions larger than the simulated L2 produce
        recurring misses; regions smaller than L1 quickly become resident.
    weight:
        Relative probability that a memory access targets this region.
    pattern:
        ``"stream"`` walks the region sequentially (spatial locality,
        prefetch-friendly, independent misses -- typical of SPEC FP);
        ``"random"`` picks uniformly random addresses (pointer-structure-like,
        typical of SPEC INT).
    stride:
        Byte stride between consecutive accesses for the ``"stream"`` pattern.
    is_far:
        Marks the region as part of the *far* working set: loads from it are
        candidate producers for pointer-chased (low-locality) address
        calculations.
    """

    name: str
    size_bytes: int
    weight: float
    pattern: str = "stream"
    stride: int = 8
    is_far: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise WorkloadError(f"region {self.name!r}: size must be positive")
        if self.weight < 0:
            raise WorkloadError(f"region {self.name!r}: weight must be non-negative")
        if self.pattern not in ("stream", "random"):
            raise WorkloadError(
                f"region {self.name!r}: pattern must be 'stream' or 'random', got {self.pattern!r}"
            )
        if self.stride <= 0:
            raise WorkloadError(f"region {self.name!r}: stride must be positive")


@dataclass(frozen=True)
class WorkloadParameters:
    """Statistical description of a synthetic workload.

    The defaults produce a bland, cache-friendly integer workload; the named
    kernels in :mod:`repro.workloads.spec_fp` and
    :mod:`repro.workloads.spec_int` override them.
    """

    name: str = "synthetic"
    #: Instruction mix.  The remaining fraction is integer ALU work.
    load_fraction: float = 0.25
    store_fraction: float = 0.12
    branch_fraction: float = 0.12
    fp_fraction: float = 0.0
    #: Memory regions making up the data footprint.
    regions: Tuple[MemoryRegion, ...] = (
        MemoryRegion(name="hot", size_bytes=16 * 1024, weight=0.7, pattern="stream"),
        MemoryRegion(name="warm", size_bytes=512 * 1024, weight=0.3, pattern="random"),
    )
    #: Probability that a load's address depends on the result of a recent far
    #: load (pointer chasing): produces low-locality load address calculations.
    chased_load_fraction: float = 0.0
    #: Probability that a store's address depends on the result of a recent far
    #: load: produces low-locality store address calculations (rare; high for
    #: equake-like sparse codes).
    chased_store_fraction: float = 0.0
    #: Probability that a load reads an address recently written by a store.
    forwarding_fraction: float = 0.08
    #: Mean instruction distance between a forwarding store→load pair.
    forwarding_distance_mean: float = 12.0
    #: Maximum forwarding distance considered.
    forwarding_distance_max: int = 512
    #: Probability that the data consumed by a non-memory instruction comes
    #: from a register produced by a far (likely missing) load.
    miss_consumer_fraction: float = 0.05
    #: Mean register dependence distance for ALU operands.
    dependence_distance_mean: float = 6.0
    #: Branch misprediction rate.
    branch_mispredict_rate: float = 0.02
    #: Fraction of mispredicted branches whose condition depends on a far load.
    mispredict_depends_on_miss_fraction: float = 0.1
    #: Memory access size distribution: (size_bytes, weight) pairs.
    access_sizes: Tuple[Tuple[int, float], ...] = ((8, 0.7), (4, 0.3))
    #: Phase behaviour: real programs alternate between compute phases (cache
    #: resident) and memory phases (streaming/chasing through far regions).
    #: ``phase_length`` is the number of instructions per phase block; when it
    #: is zero the workload is phase-less and far regions are accessed
    #: uniformly.  ``memory_phase_fraction`` is the fraction of blocks that
    #: are memory phases (far regions enabled).
    phase_length: int = 0
    memory_phase_fraction: float = 0.5
    #: Base RNG seed; combined with the generator seed argument.
    seed: int = 2008

    def __post_init__(self) -> None:
        fractions = {
            "load_fraction": self.load_fraction,
            "store_fraction": self.store_fraction,
            "branch_fraction": self.branch_fraction,
            "fp_fraction": self.fp_fraction,
            "chased_load_fraction": self.chased_load_fraction,
            "chased_store_fraction": self.chased_store_fraction,
            "forwarding_fraction": self.forwarding_fraction,
            "miss_consumer_fraction": self.miss_consumer_fraction,
            "branch_mispredict_rate": self.branch_mispredict_rate,
            "mispredict_depends_on_miss_fraction": self.mispredict_depends_on_miss_fraction,
        }
        for field_name, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{self.name!r}: {field_name} must lie in [0, 1], got {value}")
        if self.load_fraction + self.store_fraction + self.branch_fraction > 1.0:
            raise WorkloadError(
                f"{self.name!r}: load+store+branch fractions exceed 1.0"
            )
        if not self.regions:
            raise WorkloadError(f"{self.name!r}: at least one memory region is required")
        if sum(region.weight for region in self.regions) <= 0:
            raise WorkloadError(f"{self.name!r}: region weights must not all be zero")
        if self.forwarding_distance_mean <= 0:
            raise WorkloadError(f"{self.name!r}: forwarding_distance_mean must be positive")
        if self.forwarding_distance_max < 1:
            raise WorkloadError(f"{self.name!r}: forwarding_distance_max must be >= 1")
        if self.dependence_distance_mean <= 0:
            raise WorkloadError(f"{self.name!r}: dependence_distance_mean must be positive")
        if self.phase_length < 0:
            raise WorkloadError(f"{self.name!r}: phase_length must be non-negative")
        if not 0.0 <= self.memory_phase_fraction <= 1.0:
            raise WorkloadError(
                f"{self.name!r}: memory_phase_fraction must lie in [0, 1]"
            )
        if not self.access_sizes:
            raise WorkloadError(f"{self.name!r}: access_sizes must not be empty")
        for size, weight in self.access_sizes:
            if size <= 0 or size & (size - 1) != 0:
                raise WorkloadError(f"{self.name!r}: access size {size} must be a power of two")
            if weight < 0:
                raise WorkloadError(f"{self.name!r}: access size weights must be non-negative")

    def with_name(self, name: str) -> "WorkloadParameters":
        """Return a copy of these parameters under a different name."""
        return replace(self, name=name)


@dataclass
class _RegisterRecord:
    """Bookkeeping for a recently written register."""

    register: int
    seq: int
    from_far_load: bool


@dataclass
class _StoreRecord:
    """Bookkeeping for a recently generated store (forwarding candidates)."""

    seq: int
    address: int
    size: int


class _RegionCursor:
    """Mutable per-region address cursor used during generation."""

    def __init__(self, region: MemoryRegion, base_address: int, rng: DeterministicRng) -> None:
        self.region = region
        self.base_address = base_address
        self._offset = 0
        self._rng = rng

    def next_address(self) -> int:
        """Return the next address according to the region's access pattern."""
        if self.region.pattern == "stream":
            address = self.base_address + self._offset
            self._offset = (self._offset + self.region.stride) % self.region.size_bytes
            return address
        offset = self._rng.integer(0, self.region.size_bytes - 1)
        return self.base_address + (offset & ~0x7)


class SyntheticWorkload:
    """Generates instruction traces from a :class:`WorkloadParameters` description."""

    #: Regions are laid out in a flat address space with this much padding
    #: between them so that sets of different regions rarely alias perfectly.
    _REGION_PADDING = 1 << 20

    def __init__(self, parameters: WorkloadParameters, seed: Optional[int] = None) -> None:
        self.parameters = parameters
        self._seed = parameters.seed if seed is None else seed

    def generate(self, num_instructions: int) -> Trace:
        """Generate a trace of exactly ``num_instructions`` instructions.

        The stream is emitted straight into columnar storage
        (:class:`~repro.isa.columns.TraceColumns`): no per-instruction
        dataclass is allocated unless an object-API consumer later asks for
        one.  The random draws are identical to the historical object-built
        path, so the resulting trace is bit-identical either way (asserted
        by ``tests/test_columns.py``).
        """
        if num_instructions < 0:
            raise WorkloadError(f"num_instructions must be non-negative, got {num_instructions}")
        params = self.parameters
        rng = DeterministicRng(self._seed).spawn(params.name)
        region_rng = rng.spawn("regions")
        cursors = self._build_cursors(region_rng)
        region_weights = [region.weight for region in params.regions]

        compute_weights = [
            0.0 if region.is_far else region.weight for region in params.regions
        ]
        if sum(compute_weights) <= 0:
            compute_weights = list(region_weights)

        columns = TraceColumns()
        append_row = columns.append_row
        count = 0
        recent_registers: Deque[_RegisterRecord] = deque(maxlen=64)
        far_load_registers: Deque[_RegisterRecord] = deque(maxlen=len(_POINTER_REGISTERS))
        recent_stores: Deque[_StoreRecord] = deque(maxlen=params.forwarding_distance_max)
        int_dest_cursor = 0
        fp_dest_cursor = 0
        pointer_dest_cursor = 0

        # Seed the base registers so early address calculations have producers.
        for base_register in _BASE_REGISTERS:
            if count >= num_instructions:
                break
            append_row(CODE_INT_ALU, base_register, -1, -1, -1, -1, 0, 8, 0, 0)
            count += 1

        while count < num_instructions:
            seq = count
            weights = (
                region_weights
                if self._in_memory_phase(seq)
                else compute_weights
            )
            iclass = self._pick_class(rng)
            if iclass is InstrClass.LOAD:
                dest, srcs, address, size, record = self._make_load(
                    seq, rng, cursors, weights, recent_stores, far_load_registers,
                    _INT_DEST_REGISTERS[int_dest_cursor],
                    _POINTER_REGISTERS[pointer_dest_cursor],
                )
                s0, s1, s2, s3 = _pad4(srcs)
                append_row(CODE_LOAD, dest, s0, s1, s2, s3, address, size, FLAG_HAS_ADDRESS, 0)
                if record.from_far_load:
                    pointer_dest_cursor = (pointer_dest_cursor + 1) % len(_POINTER_REGISTERS)
                    far_load_registers.append(record)
                else:
                    int_dest_cursor = (int_dest_cursor + 1) % len(_INT_DEST_REGISTERS)
                recent_registers.append(record)
            elif iclass is InstrClass.STORE:
                srcs, address, size = self._make_store(
                    seq, rng, cursors, weights, recent_registers, far_load_registers,
                    recent_stores,
                )
                s0, s1, s2, s3 = _pad4(srcs)
                append_row(CODE_STORE, -1, s0, s1, s2, s3, address, size, FLAG_HAS_ADDRESS, 0)
            elif iclass is InstrClass.BRANCH:
                srcs, mispredicted = self._make_branch(
                    seq, rng, recent_registers, far_load_registers
                )
                s0, s1, s2, s3 = _pad4(srcs)
                append_row(
                    CODE_BRANCH, -1, s0, s1, s2, s3, 0, 8,
                    FLAG_MISPREDICTED if mispredicted else 0, 0,
                )
            elif iclass is InstrClass.FP_ALU:
                dest = _FP_DEST_REGISTERS[fp_dest_cursor]
                fp_dest_cursor = (fp_dest_cursor + 1) % len(_FP_DEST_REGISTERS)
                srcs = self._pick_alu_sources(rng, recent_registers, far_load_registers)
                s0, s1, s2, s3 = _pad4(srcs)
                append_row(CODE_FP_ALU, dest, s0, s1, s2, s3, 0, 8, 0, 0)
                recent_registers.append(_RegisterRecord(dest, seq, from_far_load=False))
            else:
                dest = _INT_DEST_REGISTERS[int_dest_cursor]
                int_dest_cursor = (int_dest_cursor + 1) % len(_INT_DEST_REGISTERS)
                srcs = self._pick_alu_sources(rng, recent_registers, far_load_registers)
                s0, s1, s2, s3 = _pad4(srcs)
                append_row(CODE_INT_ALU, dest, s0, s1, s2, s3, 0, 8, 0, 0)
                recent_registers.append(_RegisterRecord(dest, seq, from_far_load=False))
            count += 1

        footprints = tuple(
            RegionFootprint(
                name=cursor.region.name,
                base_address=cursor.base_address,
                size_bytes=cursor.region.size_bytes,
                weight=cursor.region.weight,
                pattern=cursor.region.pattern,
            )
            for cursor in cursors
        )
        return Trace.from_columns(columns, name=params.name, regions=footprints)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _in_memory_phase(self, seq: int) -> bool:
        """Whether instruction ``seq`` falls into a memory (far-region) phase."""
        params = self.parameters
        if params.phase_length <= 0 or params.memory_phase_fraction >= 1.0:
            return True
        if params.memory_phase_fraction <= 0.0:
            return False
        block = seq // params.phase_length
        fraction = params.memory_phase_fraction
        return int((block + 1) * fraction) > int(block * fraction)

    def _build_cursors(self, rng: DeterministicRng) -> List[_RegionCursor]:
        cursors: List[_RegionCursor] = []
        base_address = self._REGION_PADDING
        for region in self.parameters.regions:
            cursors.append(_RegionCursor(region, base_address, rng.spawn(region.name)))
            base_address += region.size_bytes + self._REGION_PADDING
        return cursors

    def _pick_class(self, rng: DeterministicRng) -> InstrClass:
        params = self.parameters
        draw = rng.uniform()
        if draw < params.load_fraction:
            return InstrClass.LOAD
        draw -= params.load_fraction
        if draw < params.store_fraction:
            return InstrClass.STORE
        draw -= params.store_fraction
        if draw < params.branch_fraction:
            return InstrClass.BRANCH
        if rng.chance(params.fp_fraction):
            return InstrClass.FP_ALU
        return InstrClass.INT_ALU

    def _pick_region_cursor(
        self, rng: DeterministicRng, cursors: Sequence[_RegionCursor], weights: Sequence[float]
    ) -> _RegionCursor:
        return rng.weighted_choice(list(cursors), list(weights))

    def _pick_access_size(self, rng: DeterministicRng) -> int:
        sizes = [size for size, _ in self.parameters.access_sizes]
        weights = [weight for _, weight in self.parameters.access_sizes]
        return rng.weighted_choice(sizes, weights)

    def _pick_address_sources(
        self,
        rng: DeterministicRng,
        far_load_registers: Deque[_RegisterRecord],
        chase_probability: float,
    ) -> Tuple[Tuple[int, ...], bool]:
        """Return (address source registers, is_chased)."""
        if far_load_registers and rng.chance(chase_probability):
            record = rng.choice(list(far_load_registers))
            return (record.register,), True
        return (rng.choice(_BASE_REGISTERS),), False

    def _pick_alu_sources(
        self,
        rng: DeterministicRng,
        recent_registers: Deque[_RegisterRecord],
        far_load_registers: Deque[_RegisterRecord],
    ) -> Tuple[int, ...]:
        params = self.parameters
        sources: List[int] = []
        if far_load_registers and rng.chance(params.miss_consumer_fraction):
            sources.append(rng.choice(list(far_load_registers)).register)
        if recent_registers:
            distance = rng.geometric(params.dependence_distance_mean, len(recent_registers))
            sources.append(recent_registers[-distance].register)
        else:
            sources.append(rng.choice(_BASE_REGISTERS))
        return tuple(sources[:2])

    def _make_load(
        self,
        seq: int,
        rng: DeterministicRng,
        cursors: Sequence[_RegionCursor],
        weights: Sequence[float],
        recent_stores: Deque[_StoreRecord],
        far_load_registers: Deque[_RegisterRecord],
        normal_dest: int,
        pointer_dest: int,
    ) -> Tuple[int, Tuple[int, ...], int, int, _RegisterRecord]:
        """Draw one load; returns ``(dest, srcs, address, size, record)``."""
        params = self.parameters
        size = self._pick_access_size(rng)

        # Store→load forwarding: reuse the address of a recent store.
        if recent_stores and rng.chance(params.forwarding_fraction):
            distance = rng.geometric(params.forwarding_distance_mean, len(recent_stores))
            store_record = recent_stores[-distance]
            srcs = (rng.choice(_BASE_REGISTERS),)
            return (
                normal_dest,
                srcs,
                store_record.address,
                min(size, store_record.size),
                _RegisterRecord(normal_dest, seq, from_far_load=False),
            )

        srcs, chased = self._pick_address_sources(
            rng, far_load_registers, params.chased_load_fraction
        )
        cursor = self._pick_region_cursor(rng, cursors, weights)
        address = cursor.next_address()
        from_far = cursor.region.is_far or chased
        dest = pointer_dest if from_far else normal_dest
        return dest, srcs, address, size, _RegisterRecord(dest, seq, from_far_load=from_far)

    def _make_store(
        self,
        seq: int,
        rng: DeterministicRng,
        cursors: Sequence[_RegionCursor],
        weights: Sequence[float],
        recent_registers: Deque[_RegisterRecord],
        far_load_registers: Deque[_RegisterRecord],
        recent_stores: Deque[_StoreRecord],
    ) -> Tuple[Tuple[int, ...], int, int]:
        """Draw one store; returns ``(srcs, address, size)``."""
        params = self.parameters
        size = self._pick_access_size(rng)
        address_srcs, _chased = self._pick_address_sources(
            rng, far_load_registers, params.chased_store_fraction
        )
        cursor = self._pick_region_cursor(rng, cursors, weights)
        address = cursor.next_address()
        data_src = (
            recent_registers[-1].register if recent_registers else rng.choice(_BASE_REGISTERS)
        )
        recent_stores.append(_StoreRecord(seq=seq, address=address, size=size))
        return address_srcs + (data_src,), address, size

    def _make_branch(
        self,
        seq: int,
        rng: DeterministicRng,
        recent_registers: Deque[_RegisterRecord],
        far_load_registers: Deque[_RegisterRecord],
    ) -> Tuple[Tuple[int, ...], bool]:
        """Draw one branch; returns ``(srcs, mispredicted)``."""
        params = self.parameters
        mispredicted = rng.chance(params.branch_mispredict_rate)
        if (
            mispredicted
            and far_load_registers
            and rng.chance(params.mispredict_depends_on_miss_fraction)
        ):
            srcs: Tuple[int, ...] = (rng.choice(list(far_load_registers)).register,)
        elif recent_registers:
            distance = rng.geometric(params.dependence_distance_mean, len(recent_registers))
            srcs = (recent_registers[-distance].register,)
        else:
            srcs = (rng.choice(_BASE_REGISTERS),)
        return srcs, mispredicted
