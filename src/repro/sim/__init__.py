"""Simulation driver, named configurations and the experiment harness.

* :mod:`repro.sim.configs` -- the paper's named machine configurations
  (OoO-64, OoO-64-SVW, FMC-Central, FMC-Line, FMC-Hash, FMC-Hash-SVW,
  FMC-Hash-RSAC) and the parameterised builders behind them.
* :mod:`repro.sim.simulator` -- :class:`~repro.sim.simulator.Simulator` runs a
  machine over traces and suites and aggregates results.
* :mod:`repro.sim.experiments` -- one function per table / figure of the
  evaluation section; each returns a :class:`~repro.sim.experiments.Plan`
  (its simulation cases plus a reduction) that
  :meth:`~repro.sim.experiments.ExperimentContext.run` runs.
* :mod:`repro.sim.tables` -- plain-text formatters that render each
  experiment's result in the paper's layout.
"""

from repro.sim.configs import (
    LSQKind,
    MachineConfig,
    MachineKind,
    PAPER_CONFIGS,
    fmc_central,
    fmc_elsq,
    fmc_hash,
    fmc_hash_rsac,
    fmc_hash_svw,
    fmc_line,
    machine_by_name,
    ooo_64,
    ooo_64_svw,
)
from repro.sim.simulator import (
    DEFAULT_INSTRUCTIONS_PER_WORKLOAD,
    Simulator,
    SuiteResult,
)

# Imported last: the experiment harness builds on the simulator and on the
# orchestration layer (repro.exp.runner), which itself needs
# repro.sim.configs and repro.sim.simulator to be fully initialised.
from repro.sim.experiments import ExperimentContext, quick_context

__all__ = [
    "DEFAULT_INSTRUCTIONS_PER_WORKLOAD",
    "ExperimentContext",
    "LSQKind",
    "MachineConfig",
    "MachineKind",
    "PAPER_CONFIGS",
    "Simulator",
    "SuiteResult",
    "fmc_central",
    "fmc_elsq",
    "fmc_hash",
    "fmc_hash_rsac",
    "fmc_hash_svw",
    "fmc_line",
    "machine_by_name",
    "ooo_64",
    "ooo_64_svw",
    "quick_context",
]
