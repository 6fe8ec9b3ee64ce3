"""Experiment orchestration: parallel sweeps, result caching and the CLI.

This package turns the library into a reproducible experiment platform:

* :mod:`repro.exp.runner` -- :class:`~repro.exp.runner.ExperimentRunner` fans
  sweeps (machine configurations x workload suites) out over a
  process pool, with every simulation expressed as a
  deterministic, content-addressed :class:`~repro.exp.runner.SimJob`.
* :mod:`repro.exp.cache` -- :class:`~repro.exp.cache.ResultCache`, an
  on-disk JSON store keyed by the stable hash of (machine configuration,
  workload parameters, trace length, seed), so re-running a figure only
  simulates what changed.
* :mod:`repro.exp.cli` -- the ``python -m repro`` command line interface
  that reproduces any paper figure/table, lists cached results and emits
  machine-readable artifacts.
* :mod:`repro.exp.request` -- :class:`~repro.exp.request.JobRequest`, the
  content-addressed wire form of a submission (named figure campaign or
  explicit job batch) that the service coalesces on.
"""

from repro.exp.cache import CacheEntry, PruneReport, ResultCache
from repro.exp.request import JobRequest
from repro.exp.runner import ExperimentRunner, SimJob, SweepCase, job_key, run_job

__all__ = [
    "CacheEntry",
    "ExperimentRunner",
    "JobRequest",
    "PruneReport",
    "ResultCache",
    "SimJob",
    "SweepCase",
    "job_key",
    "run_job",
]
