"""Shared infrastructure for the ELSQ reproduction.

This package groups the pieces that every other subsystem relies on:

* :mod:`repro.common.errors` -- the exception hierarchy raised by the library.
* :mod:`repro.common.rng` -- :func:`~repro.common.rng.derive_seed`, which
  seeds the workload generator's :class:`random.Random` streams from a parent
  seed and a label, so that every trace is reproducible from a single
  integer seed.
* :mod:`repro.common.stats` -- the statistics registry (one counter
  mapping plus histograms) used to account for every structure access
  the paper reports.
* :mod:`repro.common.config` -- validated configuration dataclasses mirroring
  Table 1 of the paper.
"""

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.common.rng import derive_seed
from repro.common.stats import Histogram, StatsRegistry

__all__ = [
    "ConfigurationError",
    "Histogram",
    "ReproError",
    "SimulationError",
    "StatsRegistry",
    "TraceError",
    "WorkloadError",
    "derive_seed",
]
