"""Configuration dataclasses mirroring Table 1 of the paper.

Every tunable of the simulated machines is expressed as a frozen dataclass
with defaults equal to the paper's *default processor parameters* (Table 1).
Constructing a configuration validates it eagerly so that an impossible
machine (a cache whose size is not a multiple of ``line_size * associativity``,
a zero-entry queue, a negative latency) is rejected before any simulation
starts.

The configuration objects are deliberately dumb containers -- the structures
in :mod:`repro.memory`, :mod:`repro.core`, :mod:`repro.uarch` and
:mod:`repro.fmc` interpret them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.errors import ConfigurationError


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def _require_non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


def _require_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1) != 0:
        raise ConfigurationError(f"{name} must be a power of two, got {value}")


class ERTKind(enum.Enum):
    """The two global-disambiguation filter organisations studied in the paper.

    * ``LINE`` -- one bit-vector per L1 cache line (requires line locking).
    * ``HASH`` -- Bloom-style filter indexed by the low ``n`` address bits.
    * ``NONE`` -- no filter; every global search scans all active epochs
      (used only as an analysis baseline, never proposed by the paper).
    """

    LINE = "line"
    HASH = "hash"
    NONE = "none"


class DisambiguationModel(enum.Enum):
    """Restricted disambiguation models from Section 3.3 of the paper."""

    FULL = "full"
    RESTRICTED_SAC = "rsac"
    RESTRICTED_LAC = "rlac"
    RESTRICTED_SAC_LAC = "rsac_lac"

    @property
    def restricts_store_address_calculation(self) -> bool:
        """Whether stores with miss-dependent addresses must resolve in the HL-LSQ."""
        return self in (DisambiguationModel.RESTRICTED_SAC, DisambiguationModel.RESTRICTED_SAC_LAC)

    @property
    def restricts_load_address_calculation(self) -> bool:
        """Whether loads with miss-dependent addresses must resolve in the HL-LSQ."""
        return self in (DisambiguationModel.RESTRICTED_LAC, DisambiguationModel.RESTRICTED_SAC_LAC)


class LoadQueueScheme(enum.Enum):
    """How load ordering violations are detected.

    * ``ASSOCIATIVE`` -- conventional associative load queues searched by
      stores at issue (the ELSQ default).
    * ``SVW_REEXECUTION`` -- the load queue is non-associative; loads
      re-execute at commit when the Store Vulnerability Window filter says
      they may have been violated (Section 3.5 / 5.6).
    """

    ASSOCIATIVE = "associative"
    SVW_REEXECUTION = "svw"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry, latency and replacement policy of a single cache level.

    ``replacement_policy`` names an entry of the policy registry
    (:data:`repro.memory.replacement.POLICY_NAMES`).  The policy is part of
    the cache's identity -- it serializes with the config and therefore
    flows into every job content address -- so results simulated under
    different policies can never collide in any cache or coalescing key.
    """

    size_bytes: int
    associativity: int
    line_size: int
    latency: int
    name: str = "cache"
    replacement_policy: str = "lru"

    def __post_init__(self) -> None:
        # Local import: the policy registry lives a layer above this module
        # (repro.memory imports repro.common), so the name check resolves at
        # construction time rather than import time.
        from repro.memory.replacement import validate_policy_name

        _require_positive(f"{self.name}.size_bytes", self.size_bytes)
        _require_positive(f"{self.name}.associativity", self.associativity)
        _require_power_of_two(f"{self.name}.line_size", self.line_size)
        _require_non_negative(f"{self.name}.latency", self.latency)
        validate_policy_name(self.replacement_policy)
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"line_size*associativity ({self.line_size}*{self.associativity})"
            )
        num_sets = self.size_bytes // (self.line_size * self.associativity)
        if num_sets & (num_sets - 1) != 0:
            raise ConfigurationError(
                f"{self.name}: number of sets ({num_sets}) must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.line_size * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """The L1 / L2 / main-memory hierarchy of Table 1."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, associativity=4, line_size=32, latency=1, name="L1"
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * 1024 * 1024, associativity=4, line_size=32, latency=10, name="L2"
        )
    )
    main_memory_latency: int = 400
    cache_ports: int = 2

    def __post_init__(self) -> None:
        _require_non_negative("main_memory_latency", self.main_memory_latency)
        _require_positive("cache_ports", self.cache_ports)
        if self.l2.line_size < self.l1.line_size:
            raise ConfigurationError("L2 line size must be >= L1 line size")

    def with_l2_size(self, size_bytes: int) -> "MemoryHierarchyConfig":
        """Return a copy with the L2 capacity changed (used by Figure 11)."""
        return replace(self, l2=replace(self.l2, size_bytes=size_bytes))

    def with_l1(self, size_bytes: int, associativity: int) -> "MemoryHierarchyConfig":
        """Return a copy with a different L1 geometry (used by Figure 8b/c)."""
        return replace(
            self, l1=replace(self.l1, size_bytes=size_bytes, associativity=associativity)
        )

    def with_policy(self, policy: str) -> "MemoryHierarchyConfig":
        """Return a copy with both cache levels running ``policy``."""
        return replace(
            self,
            l1=replace(self.l1, replacement_policy=policy),
            l2=replace(self.l2, replacement_policy=policy),
        )


@dataclass(frozen=True)
class CoreConfig:
    """An out-of-order core: the OoO-64 baseline and the FMC Cache Processor.

    Defaults reproduce the OoO-64 / Cache Processor column of Table 1.
    """

    fetch_width: int = 4
    decode_latency: int = 3
    rob_size: int = 64
    int_issue_queue_entries: int = 40
    fp_issue_queue_entries: int = 40
    issue_width: int = 4
    commit_width: int = 4
    int_registers: int = 96
    fp_registers: int = 96
    int_alu_latency: int = 1
    fp_alu_latency: int = 4
    branch_latency: int = 1
    branch_mispredict_penalty: int = 12
    load_queue_entries: int = 32
    store_queue_entries: int = 24

    def __post_init__(self) -> None:
        _require_positive("fetch_width", self.fetch_width)
        _require_non_negative("decode_latency", self.decode_latency)
        _require_positive("rob_size", self.rob_size)
        _require_positive("int_issue_queue_entries", self.int_issue_queue_entries)
        _require_positive("fp_issue_queue_entries", self.fp_issue_queue_entries)
        _require_positive("issue_width", self.issue_width)
        _require_positive("commit_width", self.commit_width)
        _require_positive("int_registers", self.int_registers)
        _require_positive("fp_registers", self.fp_registers)
        _require_positive("int_alu_latency", self.int_alu_latency)
        _require_positive("fp_alu_latency", self.fp_alu_latency)
        _require_positive("branch_latency", self.branch_latency)
        _require_non_negative("branch_mispredict_penalty", self.branch_mispredict_penalty)
        _require_positive("load_queue_entries", self.load_queue_entries)
        _require_positive("store_queue_entries", self.store_queue_entries)


@dataclass(frozen=True)
class MemoryEngineConfig:
    """One in-order memory engine of the FMC Memory Processor (Table 1)."""

    max_instructions: int = 128
    max_loads: int = 64
    max_stores: int = 32
    issue_queue_entries: int = 20
    issue_width: int = 2

    def __post_init__(self) -> None:
        _require_positive("max_instructions", self.max_instructions)
        _require_positive("max_loads", self.max_loads)
        _require_positive("max_stores", self.max_stores)
        _require_positive("issue_queue_entries", self.issue_queue_entries)
        _require_positive("issue_width", self.issue_width)
        if self.max_loads > self.max_instructions or self.max_stores > self.max_instructions:
            raise ConfigurationError(
                "per-epoch load/store capacity cannot exceed max_instructions"
            )


@dataclass(frozen=True)
class InterconnectConfig:
    """Latency model of the CP <-> MP bus and the inter-engine mesh."""

    cp_to_mp_latency: int = 4
    hop_latency: int = 1

    def __post_init__(self) -> None:
        _require_non_negative("cp_to_mp_latency", self.cp_to_mp_latency)
        _require_non_negative("hop_latency", self.hop_latency)

    @property
    def round_trip_latency(self) -> int:
        """A full CP -> MP -> CP round trip (the paper quotes > 8 cycles)."""
        return 2 * self.cp_to_mp_latency


@dataclass(frozen=True)
class ERTConfig:
    """Epoch Resolution Table configuration (Section 3.4)."""

    kind: ERTKind = ERTKind.HASH
    hash_bits: int = 10
    entry_bits: int = 16

    def __post_init__(self) -> None:
        if self.kind is ERTKind.HASH:
            if not 1 <= self.hash_bits <= 32:
                raise ConfigurationError(f"hash_bits must lie in [1, 32], got {self.hash_bits}")
        _require_positive("entry_bits", self.entry_bits)

    @property
    def hash_entries(self) -> int:
        """Number of rows in a hash-based ERT."""
        return 1 << self.hash_bits

    def storage_bytes(self, l1: Optional[CacheConfig] = None) -> int:
        """Total storage of one ERT table (loads *or* stores) in bytes.

        Line-based tables have one row per L1 line and therefore need the L1
        geometry to size themselves; hash-based tables are independent of the
        cache.
        """
        if self.kind is ERTKind.LINE:
            if l1 is None:
                raise ConfigurationError("line-based ERT sizing requires the L1 configuration")
            rows = l1.num_lines
        else:
            rows = self.hash_entries
        return rows * self.entry_bits // 8


@dataclass(frozen=True)
class SVWConfig:
    """Store Vulnerability Window re-execution configuration (Section 3.5)."""

    ssbf_index_bits: int = 10
    check_stores: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.ssbf_index_bits <= 32:
            raise ConfigurationError(
                f"ssbf_index_bits must lie in [1, 32], got {self.ssbf_index_bits}"
            )

    @property
    def ssbf_entries(self) -> int:
        """Number of entries of the Store Sequence Bloom Filter."""
        return 1 << self.ssbf_index_bits


@dataclass(frozen=True)
class ELSQConfig:
    """Full configuration of the Epoch-based Load/Store Queue."""

    hl_load_entries: int = 32
    hl_store_entries: int = 24
    num_epochs: int = 16
    epoch_load_entries: int = 64
    epoch_store_entries: int = 32
    ert: ERTConfig = field(default_factory=ERTConfig)
    disambiguation: DisambiguationModel = DisambiguationModel.FULL
    store_queue_mirror: bool = True
    load_queue_scheme: LoadQueueScheme = LoadQueueScheme.ASSOCIATIVE
    svw: SVWConfig = field(default_factory=SVWConfig)
    locality_threshold_cycles: int = 30

    def __post_init__(self) -> None:
        _require_positive("hl_load_entries", self.hl_load_entries)
        _require_positive("hl_store_entries", self.hl_store_entries)
        _require_positive("num_epochs", self.num_epochs)
        _require_positive("epoch_load_entries", self.epoch_load_entries)
        _require_positive("epoch_store_entries", self.epoch_store_entries)
        _require_positive("locality_threshold_cycles", self.locality_threshold_cycles)
        if (
            self.load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION
            and self.disambiguation.restricts_load_address_calculation
        ):
            raise ConfigurationError(
                "SVW re-execution and restricted LAC both remove the load queue; "
                "combining them is not meaningful"
            )


@dataclass(frozen=True)
class FMCConfig:
    """The Flexible MultiCore processor hosting the ELSQ (Section 4)."""

    cache_processor: CoreConfig = field(default_factory=CoreConfig)
    memory_engine: MemoryEngineConfig = field(default_factory=MemoryEngineConfig)
    num_memory_engines: int = 16
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    def __post_init__(self) -> None:
        _require_positive("num_memory_engines", self.num_memory_engines)
