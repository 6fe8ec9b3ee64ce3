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

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Deque, List, Optional, Tuple

from repro.common.errors import WorkloadError
from repro.common.rng import derive_seed
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
from repro.isa.instruction import FP_REGISTER_BASE, MAX_ACCESS_SIZE
from repro.isa.trace import RegionFootprint, Trace


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
        if not 0.0 <= self.weight < math.inf:
            raise WorkloadError(
                f"region {self.name!r}: weight must be finite and non-negative, got {self.weight}"
            )
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
        if not 0.0 < sum(region.weight for region in self.regions) < math.inf:
            raise WorkloadError(f"{self.name!r}: region weights must have a positive, finite sum")
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
            if size > MAX_ACCESS_SIZE:
                raise WorkloadError(
                    f"{self.name!r}: access size {size} exceeds the trace's "
                    f"{MAX_ACCESS_SIZE}-byte maximum"
                )
            if not 0.0 <= weight < math.inf:
                raise WorkloadError(
                    f"{self.name!r}: access size weights must be finite and non-negative"
                )
        if not 0.0 < sum(weight for _, weight in self.access_sizes) < math.inf:
            raise WorkloadError(
                f"{self.name!r}: access size weights must have a positive, finite sum"
            )

    def with_name(self, name: str) -> "WorkloadParameters":
        """Return a copy of these parameters under a different name."""
        return replace(self, name=name)


class _RegionCursor:
    """Mutable per-region address cursor used during generation."""

    def __init__(
        self, region: MemoryRegion, base_address: int, randint: Callable[[int, int], int]
    ) -> None:
        self.region = region
        self.base_address = base_address
        self._offset = 0
        self._randint = randint

    def next_address(self) -> int:
        """Return the next address according to the region's access pattern."""
        if self.region.pattern == "stream":
            address = self.base_address + self._offset
            self._offset = (self._offset + self.region.stride) % self.region.size_bytes
            return address
        offset = self._randint(0, self.region.size_bytes - 1)
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
        (:class:`~repro.isa.columns.TraceColumns`).  Every draw comes from a
        :class:`random.Random` seeded by :func:`~repro.common.rng.derive_seed`
        under the workload's name (and each random region from its own
        stream under ``"regions"`` and the region's name), so a trace depends
        only on the parameters, the seed and the length.
        ``tests/golden/trace_content.json`` pins the resulting bytes.
        """
        if num_instructions < 0:
            raise WorkloadError(f"num_instructions must be non-negative, got {num_instructions}")
        params = self.parameters
        seed = derive_seed(self._seed, params.name)
        stream = random.Random(seed)
        draw = stream.random
        choice = stream.choice
        choices = stream.choices
        cursors = self._build_cursors(derive_seed(seed, "regions"))
        in_memory_phase = self._in_memory_phase

        def chance(probability: float) -> bool:
            # Probabilities 0 and 1 draw nothing, so a configuration may
            # disable or force a behaviour without shifting the stream.
            if probability <= 0.0:
                return False
            if probability >= 1.0:
                return True
            return draw() < probability

        def geometric(mean: float, maximum: int) -> int:
            # A distance in [1, maximum], skewed toward small values like the
            # dependence and forwarding distances of real programs.
            probability = min(1.0, 1.0 / mean)
            value = 1
            while value < maximum and not draw() < probability:
                value += 1
            return value

        # Cumulative weight tables for Random.choices, built once per trace.
        # Compute phases skip the far regions unless nothing else is left.
        region_weights = list(accumulate(region.weight for region in params.regions))
        compute_weights = list(
            accumulate(0.0 if region.is_far else region.weight for region in params.regions)
        )
        if compute_weights[-1] <= 0:
            compute_weights = region_weights
        sizes = [size for size, _ in params.access_sizes]
        size_weights = list(accumulate(weight for _, weight in params.access_sizes))

        load_fraction = params.load_fraction
        store_fraction = params.store_fraction
        branch_fraction = params.branch_fraction
        fp_fraction = params.fp_fraction
        forwarding_fraction = params.forwarding_fraction
        forwarding_mean = params.forwarding_distance_mean
        chased_load_fraction = params.chased_load_fraction
        chased_store_fraction = params.chased_store_fraction
        miss_consumer_fraction = params.miss_consumer_fraction
        dependence_mean = params.dependence_distance_mean
        mispredict_rate = params.branch_mispredict_rate
        mispredict_on_miss = params.mispredict_depends_on_miss_fraction

        columns = TraceColumns()
        append_row = columns.append_row
        # Destination registers of recent producers and of recent far loads,
        # and the (address, size) of recent stores (forwarding candidates).
        recent_registers: Deque[int] = deque(maxlen=64)
        far_load_registers: Deque[int] = deque(maxlen=len(_POINTER_REGISTERS))
        recent_stores: Deque[Tuple[int, int]] = deque(maxlen=params.forwarding_distance_max)
        int_dest_cursor = 0
        fp_dest_cursor = 0
        pointer_dest_cursor = 0

        # Seed the base registers so early address calculations have producers.
        for base_register in _BASE_REGISTERS[:num_instructions]:
            append_row(CODE_INT_ALU, base_register, -1, -1, -1, -1, 0, 8, 0, 0)

        for seq in range(len(columns), num_instructions):
            weights = region_weights if in_memory_phase(seq) else compute_weights
            class_draw = draw()
            if class_draw < load_fraction:
                size = choices(sizes, cum_weights=size_weights)[0]
                if recent_stores and chance(forwarding_fraction):
                    # Store->load forwarding: reuse the address of a recent store.
                    address, store_size = recent_stores[
                        -geometric(forwarding_mean, len(recent_stores))
                    ]
                    size = min(size, store_size)
                    address_src = choice(_BASE_REGISTERS)
                    from_far = False
                else:
                    chased = bool(far_load_registers) and chance(chased_load_fraction)
                    address_src = choice(far_load_registers if chased else _BASE_REGISTERS)
                    cursor = choices(cursors, cum_weights=weights)[0]
                    address = cursor.next_address()
                    from_far = chased or cursor.region.is_far
                if from_far:
                    dest = _POINTER_REGISTERS[pointer_dest_cursor]
                    pointer_dest_cursor = (pointer_dest_cursor + 1) % len(_POINTER_REGISTERS)
                    far_load_registers.append(dest)
                else:
                    dest = _INT_DEST_REGISTERS[int_dest_cursor]
                    int_dest_cursor = (int_dest_cursor + 1) % len(_INT_DEST_REGISTERS)
                append_row(
                    CODE_LOAD, dest, address_src, -1, -1, -1, address, size, FLAG_HAS_ADDRESS, 0
                )
                recent_registers.append(dest)
            elif class_draw - load_fraction < store_fraction:
                size = choices(sizes, cum_weights=size_weights)[0]
                chased = bool(far_load_registers) and chance(chased_store_fraction)
                address_src = choice(far_load_registers if chased else _BASE_REGISTERS)
                address = choices(cursors, cum_weights=weights)[0].next_address()
                data_src = recent_registers[-1] if recent_registers else choice(_BASE_REGISTERS)
                append_row(
                    CODE_STORE, -1, address_src, data_src, -1, -1,
                    address, size, FLAG_HAS_ADDRESS, 0,
                )
                recent_stores.append((address, size))
            elif class_draw - load_fraction - store_fraction < branch_fraction:
                mispredicted = chance(mispredict_rate)
                if mispredicted and far_load_registers and chance(mispredict_on_miss):
                    src = choice(far_load_registers)
                elif recent_registers:
                    src = recent_registers[-geometric(dependence_mean, len(recent_registers))]
                else:
                    src = choice(_BASE_REGISTERS)
                append_row(
                    CODE_BRANCH, -1, src, -1, -1, -1, 0, 8,
                    FLAG_MISPREDICTED if mispredicted else 0, 0,
                )
            else:
                if chance(fp_fraction):
                    code = CODE_FP_ALU
                    dest = _FP_DEST_REGISTERS[fp_dest_cursor]
                    fp_dest_cursor = (fp_dest_cursor + 1) % len(_FP_DEST_REGISTERS)
                else:
                    code = CODE_INT_ALU
                    dest = _INT_DEST_REGISTERS[int_dest_cursor]
                    int_dest_cursor = (int_dest_cursor + 1) % len(_INT_DEST_REGISTERS)
                # A far load's result first (if consumed), then a recent producer.
                miss_src = (
                    choice(far_load_registers)
                    if far_load_registers and chance(miss_consumer_fraction)
                    else -1
                )
                if recent_registers:
                    src = recent_registers[-geometric(dependence_mean, len(recent_registers))]
                else:
                    src = choice(_BASE_REGISTERS)
                if miss_src < 0:
                    append_row(code, dest, src, -1, -1, -1, 0, 8, 0, 0)
                else:
                    append_row(code, dest, miss_src, src, -1, -1, 0, 8, 0, 0)
                recent_registers.append(dest)

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

    def _build_cursors(self, seed: int) -> List[_RegionCursor]:
        """One cursor per region, each drawing from its own derived stream."""
        cursors: List[_RegionCursor] = []
        base_address = self._REGION_PADDING
        for region in self.parameters.regions:
            randint = random.Random(derive_seed(seed, region.name)).randint
            cursors.append(_RegionCursor(region, base_address, randint))
            base_address += region.size_bytes + self._REGION_PADDING
        return cursors
