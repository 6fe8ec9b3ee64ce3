"""repro -- a reproduction of "A Two-Level Load/Store Queue Based on Execution Locality".

The library rebuilds, in pure Python, the system evaluated by Pericàs et al.
at ISCA 2008: the **Epoch-based Load/Store Queue (ELSQ)** -- a two-level,
epoch-partitioned memory disambiguation scheme for kilo-instruction-window
processors -- together with every substrate the evaluation needs:

* a trace-driven instruction model and synthetic SPEC-FP-like / SPEC-INT-like
  workload generators (:mod:`repro.isa`, :mod:`repro.workloads`),
* a two-level cache hierarchy with line locking (:mod:`repro.memory`),
* a conventional out-of-order core (the OoO-64 baseline, :mod:`repro.uarch`)
  and the FMC decoupled large-window processor (:mod:`repro.fmc`),
* the ELSQ itself with line/hash Epoch Resolution Tables, the Store Queue
  Mirror, restricted disambiguation models and SVW load re-execution, plus
  the conventional and idealised-central baselines (:mod:`repro.core`),
* an energy model anchored on the paper's CACTI numbers (:mod:`repro.energy`),
* and an experiment harness with one function per table / figure of the
  evaluation section (:mod:`repro.sim`).

Quickstart::

    from repro import Simulator, fmc_hash, ooo_64, spec_fp_suite

    suite = spec_fp_suite()
    baseline = Simulator(ooo_64()).run_suite(suite, num_instructions=20_000)
    elsq = Simulator(fmc_hash()).run_suite(suite, num_instructions=20_000)
    print("speed-up:", elsq.speedup_over(baseline))
"""

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DisambiguationModel,
    ELSQConfig,
    ERTConfig,
    ERTKind,
    FMCConfig,
    InterconnectConfig,
    LoadQueueScheme,
    MemoryEngineConfig,
    MemoryHierarchyConfig,
    SVWConfig,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.common.stats import StatsRegistry
from repro.core import (
    ConventionalLSQ,
    EpochBasedLSQ,
    HashBasedERT,
    IdealCentralLSQ,
    LineBasedERT,
    StoreQueueMirror,
    StoreVulnerabilityWindow,
)
from repro.energy import EnergyModel
from repro.fmc import FMCProcessor
from repro.isa import InstrClass, Instruction, Trace
from repro.memory import MemoryHierarchy
from repro.sim import (
    ExperimentContext,
    MachineConfig,
    Simulator,
    SuiteResult,
    fmc_central,
    fmc_elsq,
    fmc_hash,
    fmc_hash_rsac,
    fmc_hash_svw,
    fmc_line,
    machine_by_name,
    ooo_64,
    ooo_64_svw,
    quick_context,
)
from repro.uarch import CoreResult, OutOfOrderCore

# Imported after repro.sim: the orchestration layer builds on the simulation
# driver, and repro.sim.experiments itself imports repro.exp.runner.
# The service layer (repro.service) is deliberately NOT imported here: every
# figure run and every spawned pool worker imports this package, and only
# `repro serve` / `repro submit` need the HTTP stack -- import repro.service
# directly for the server and client classes.
from repro.exp import ExperimentRunner, JobRequest, ResultCache, SimJob, SweepCase
from repro.trace import (
    TRACE_FORMAT_VERSION,
    TraceArchive,
    load_trace,
    load_trace_archive,
    record_trace,
    save_trace,
)
from repro.workloads import (
    SyntheticWorkload,
    WorkloadParameters,
    WorkloadSuite,
    fp_kernel,
    int_kernel,
    spec_fp_suite,
    spec_int_suite,
    suite_by_name,
)
from repro.workloads.families import family_suite, family_suites

from repro._version import __version__ as __version__

__all__ = [
    "CacheConfig",
    "ConfigurationError",
    "ConventionalLSQ",
    "CoreConfig",
    "CoreResult",
    "DisambiguationModel",
    "ELSQConfig",
    "ERTConfig",
    "ERTKind",
    "EnergyModel",
    "EpochBasedLSQ",
    "ExperimentContext",
    "ExperimentRunner",
    "FMCConfig",
    "FMCProcessor",
    "HashBasedERT",
    "IdealCentralLSQ",
    "InstrClass",
    "Instruction",
    "InterconnectConfig",
    "JobRequest",
    "LineBasedERT",
    "LoadQueueScheme",
    "MachineConfig",
    "MemoryEngineConfig",
    "MemoryHierarchy",
    "MemoryHierarchyConfig",
    "OutOfOrderCore",
    "ReproError",
    "ResultCache",
    "SVWConfig",
    "SimJob",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "StoreQueueMirror",
    "StoreVulnerabilityWindow",
    "SuiteResult",
    "SweepCase",
    "SyntheticWorkload",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceArchive",
    "TraceError",
    "WorkloadError",
    "WorkloadParameters",
    "WorkloadSuite",
    "family_suite",
    "family_suites",
    "fmc_central",
    "fmc_elsq",
    "fmc_hash",
    "fmc_hash_rsac",
    "fmc_hash_svw",
    "fmc_line",
    "fp_kernel",
    "int_kernel",
    "load_trace",
    "load_trace_archive",
    "machine_by_name",
    "ooo_64",
    "ooo_64_svw",
    "quick_context",
    "record_trace",
    "save_trace",
    "spec_fp_suite",
    "spec_int_suite",
    "suite_by_name",
]
