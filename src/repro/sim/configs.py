"""Named machine configurations used throughout the evaluation.

Table 2 of the paper names six configurations; this module reconstructs each
of them (and the variants needed by the figures) as a :class:`MachineConfig`
that knows how to build the corresponding processor model:

* ``OoO-64``          -- conventional out-of-order core, 64-entry ROB,
                         associative LSQ.
* ``OoO-64-SVW``      -- same core, load queue replaced by SVW re-execution.
* ``FMC-Central``     -- the FMC large-window machine with the idealised
                         single-cycle, unlimited central LSQ (Figure 7's
                         "Central LSQ" reference).
* ``FMC-Line``        -- FMC + ELSQ with the line-based ERT.
* ``FMC-Hash``        -- FMC + ELSQ with the hash-based ERT (10 bits).
* ``FMC-Hash-SVW``    -- FMC + ELSQ, load queues removed in favour of SVW.
* ``FMC-Hash-RSAC``   -- FMC + ELSQ with restricted store address calculation.

Every factory accepts keyword overrides so the benchmark sweeps (epoch sizes,
ERT hash bits, cache geometry, SSBF bits, disambiguation model, SQM on/off)
can derive variants without re-specifying the whole machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Union

from repro.common.config import (
    CoreConfig,
    DisambiguationModel,
    ELSQConfig,
    ERTConfig,
    ERTKind,
    FMCConfig,
    LoadQueueScheme,
    MemoryHierarchyConfig,
    SVWConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry
from repro.core.conventional import ConventionalLSQ, IdealCentralLSQ
from repro.core.elsq import EpochBasedLSQ
from repro.fmc.processor import FMCProcessor
from repro.sim.engine import DEFAULT_ENGINE
from repro.uarch.ooo_core import OutOfOrderCore


class MachineKind(enum.Enum):
    """Which timing core a configuration uses."""

    CONVENTIONAL = "conventional"
    FMC = "fmc"


class LSQKind(enum.Enum):
    """Which load/store-queue organisation a configuration uses."""

    CONVENTIONAL = "conventional"
    CONVENTIONAL_SVW = "conventional_svw"
    CENTRAL = "central"
    ELSQ = "elsq"


@dataclass(frozen=True)
class MachineConfig:
    """A fully specified machine: core, memory hierarchy and LSQ organisation.

    ``engine`` selects the simulation engine that drives this machine over a
    trace (:mod:`repro.sim.engine`): the optimised ``fast`` loop by default,
    or ``reference`` for the original processor-model walk.  The two are
    bit-identical (enforced by ``tests/differential/``), but the engine is
    still part of the machine's identity -- and therefore of every job's
    content address -- so cached results always record which loop produced
    them.
    """

    name: str
    kind: MachineKind
    lsq: LSQKind
    core: CoreConfig = field(default_factory=CoreConfig)
    fmc: FMCConfig = field(default_factory=FMCConfig)
    elsq: ELSQConfig = field(default_factory=ELSQConfig)
    hierarchy: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    svw: SVWConfig = field(default_factory=SVWConfig)
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if not self.engine or not isinstance(self.engine, str):
            raise ConfigurationError(
                f"machine {self.name!r}: engine must be a non-empty string"
            )

    def build(self, stats: Optional[StatsRegistry] = None) -> Union[OutOfOrderCore, FMCProcessor]:
        """Construct the processor model described by this configuration."""
        registry = stats if stats is not None else StatsRegistry()
        if self.kind is MachineKind.CONVENTIONAL:
            return self._build_conventional(registry)
        return self._build_fmc(registry)

    def _build_conventional(self, stats: StatsRegistry) -> OutOfOrderCore:
        core = OutOfOrderCore(
            config=self.core,
            hierarchy_config=self.hierarchy,
            stats=stats,
            name=self.name,
        )
        if self.lsq is LSQKind.CONVENTIONAL:
            core.policy = ConventionalLSQ(stats, core.hierarchy)
        elif self.lsq is LSQKind.CONVENTIONAL_SVW:
            core.policy = ConventionalLSQ(
                stats,
                core.hierarchy,
                load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
                svw_config=self.svw,
            )
        else:
            raise ConfigurationError(
                f"machine {self.name!r}: a conventional core cannot host LSQ kind {self.lsq}"
            )
        return core

    def _build_fmc(self, stats: StatsRegistry) -> FMCProcessor:
        processor = FMCProcessor(
            config=self.fmc,
            elsq_config=self.elsq,
            hierarchy_config=self.hierarchy,
            stats=stats,
            name=self.name,
        )
        if self.lsq is LSQKind.CENTRAL:
            processor.policy = IdealCentralLSQ(
                stats,
                processor.hierarchy,
                round_trip_latency=self.fmc.interconnect.round_trip_latency,
            )
        elif self.lsq is LSQKind.ELSQ:
            processor.policy = EpochBasedLSQ(
                self.elsq, stats, processor.hierarchy, self.fmc.interconnect
            )
        else:
            raise ConfigurationError(
                f"machine {self.name!r}: the FMC cannot host LSQ kind {self.lsq}"
            )
        return processor

    # ------------------------------------------------------------------
    # Convenience derivation helpers used by the sweeps
    # ------------------------------------------------------------------

    def with_hierarchy(self, hierarchy: MemoryHierarchyConfig, name: Optional[str] = None) -> "MachineConfig":
        """Return a copy with a different memory hierarchy."""
        return replace(self, hierarchy=hierarchy, name=name if name else self.name)

    def with_engine(self, engine: str) -> "MachineConfig":
        """Return a copy driven by a different simulation engine."""
        return replace(self, engine=engine)

    def with_policy(self, policy: str) -> "MachineConfig":
        """Return a copy with both cache levels running ``policy``.

        The policy lands inside the hierarchy's :class:`CacheConfig` fields,
        so it flows into the job content address exactly like any other
        machine knob -- no stale cross-policy cache hits are possible.
        """
        return replace(self, hierarchy=self.hierarchy.with_policy(policy))

    def renamed(self, name: str) -> "MachineConfig":
        """Return a copy under a different name."""
        return replace(self, name=name)


# ----------------------------------------------------------------------
# Paper configurations
# ----------------------------------------------------------------------


def ooo_64(name: str = "OoO-64") -> MachineConfig:
    """The conventional 64-entry-ROB baseline processor."""
    return MachineConfig(name=name, kind=MachineKind.CONVENTIONAL, lsq=LSQKind.CONVENTIONAL)


def ooo_64_svw(
    ssbf_index_bits: int = 10, check_stores: bool = False, name: Optional[str] = None
) -> MachineConfig:
    """The conventional baseline with SVW load re-execution instead of a load queue."""
    label = name if name else f"OoO-64-SVW-{ssbf_index_bits}b"
    return MachineConfig(
        name=label,
        kind=MachineKind.CONVENTIONAL,
        lsq=LSQKind.CONVENTIONAL_SVW,
        svw=SVWConfig(ssbf_index_bits=ssbf_index_bits, check_stores=check_stores),
    )


def fmc_central(name: str = "FMC-Central") -> MachineConfig:
    """The FMC with an idealised single-cycle unlimited central LSQ."""
    return MachineConfig(name=name, kind=MachineKind.FMC, lsq=LSQKind.CENTRAL)


def fmc_elsq(
    ert_kind: ERTKind = ERTKind.HASH,
    hash_bits: int = 10,
    store_queue_mirror: bool = True,
    disambiguation: DisambiguationModel = DisambiguationModel.FULL,
    load_queue_scheme: LoadQueueScheme = LoadQueueScheme.ASSOCIATIVE,
    ssbf_index_bits: int = 10,
    check_stores: bool = False,
    epoch_load_entries: int = 64,
    epoch_store_entries: int = 32,
    num_epochs: int = 16,
    locality_threshold_cycles: int = 30,
    name: Optional[str] = None,
) -> MachineConfig:
    """A fully parameterised FMC + ELSQ machine (base of every ELSQ variant).

    ``num_epochs`` sizes both the ELSQ's epoch bookkeeping and the FMC's
    memory-engine pool (one live epoch per engine): the two counts describe
    the same physical resource, so the sensitivity sweeps vary them
    together.  ``locality_threshold_cycles`` is the decode-to-address-ready
    latency above which an instruction is classified low-locality and
    migrated to the Memory Processor.
    """
    elsq = ELSQConfig(
        ert=ERTConfig(kind=ert_kind, hash_bits=hash_bits),
        store_queue_mirror=store_queue_mirror,
        disambiguation=disambiguation,
        load_queue_scheme=load_queue_scheme,
        svw=SVWConfig(ssbf_index_bits=ssbf_index_bits, check_stores=check_stores),
        epoch_load_entries=epoch_load_entries,
        epoch_store_entries=epoch_store_entries,
        num_epochs=num_epochs,
        locality_threshold_cycles=locality_threshold_cycles,
    )
    if name is None:
        suffix = "Line" if ert_kind is ERTKind.LINE else f"Hash{hash_bits}"
        name = f"FMC-{suffix}{'' if store_queue_mirror else '-noSQM'}"
    return MachineConfig(
        name=name,
        kind=MachineKind.FMC,
        lsq=LSQKind.ELSQ,
        fmc=FMCConfig(num_memory_engines=num_epochs),
        elsq=elsq,
    )


def fmc_line(store_queue_mirror: bool = True, name: Optional[str] = None) -> MachineConfig:
    """FMC + ELSQ with the line-based (cache-coupled) ERT."""
    return fmc_elsq(
        ert_kind=ERTKind.LINE,
        store_queue_mirror=store_queue_mirror,
        name=name if name else ("FMC-Line" if store_queue_mirror else "FMC-Line-noSQM"),
    )


def fmc_hash(
    hash_bits: int = 10, store_queue_mirror: bool = True, name: Optional[str] = None
) -> MachineConfig:
    """FMC + ELSQ with the hash-based (Bloom) ERT."""
    return fmc_elsq(
        ert_kind=ERTKind.HASH,
        hash_bits=hash_bits,
        store_queue_mirror=store_queue_mirror,
        name=name if name else ("FMC-Hash" if store_queue_mirror else "FMC-Hash-noSQM"),
    )


def fmc_hash_svw(
    ssbf_index_bits: int = 10, check_stores: bool = False, name: Optional[str] = None
) -> MachineConfig:
    """FMC + ELSQ with SVW re-execution replacing the associative load queues."""
    return fmc_elsq(
        ert_kind=ERTKind.HASH,
        load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
        ssbf_index_bits=ssbf_index_bits,
        check_stores=check_stores,
        name=name if name else f"FMC-Hash-SVW-{ssbf_index_bits}b",
    )


def fmc_hash_rsac(name: str = "FMC-Hash-RSAC") -> MachineConfig:
    """FMC + ELSQ with restricted store address calculation."""
    return fmc_elsq(
        ert_kind=ERTKind.HASH,
        disambiguation=DisambiguationModel.RESTRICTED_SAC,
        name=name,
    )


#: The configurations of Table 2, by their paper names.
PAPER_CONFIGS: Dict[str, Callable[[], MachineConfig]] = {
    "OoO-64": ooo_64,
    "OoO-64-SVW": ooo_64_svw,
    "FMC-Central": fmc_central,
    "FMC-Line": fmc_line,
    "FMC-Hash": fmc_hash,
    "FMC-Hash-SVW": fmc_hash_svw,
    "FMC-Hash-RSAC": fmc_hash_rsac,
}


def machine_by_name(name: str) -> MachineConfig:
    """Return one of the paper's named configurations."""
    try:
        factory = PAPER_CONFIGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; available: {sorted(PAPER_CONFIGS)}"
        ) from None
    return factory()
