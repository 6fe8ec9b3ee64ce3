"""Per-phase wall-time accounting for the performance harness.

The repository benchmark (``perfbench/``) and ``repro profile`` attribute
where a figure's wall time actually goes by having the hot paths report how
long each *phase* of a simulation took:

* ``generation`` -- synthesising workload instruction streams
  (:func:`repro.exp.runner._trace_for`),
* ``build``      -- constructing processor models from machine configs,
* ``warmup``     -- bringing cache state to its steady-state snapshot,
* ``drive``      -- the per-instruction simulation loop itself,
* ``dispatch``   -- the wall time of a parallel batch's pool map, in the
  parent.

This module is a thin compatibility shim over :mod:`repro.obs.spans`, which
owns the accumulator (and additionally records individual spans while a
profiling session is armed).  Worker processes accumulate into their own
copies and ship the per-task deltas back with each result; the parent
merges them (:func:`repro.obs.spans.merge_worker`), so parallel-mode
snapshots now include real worker-side phase data alongside the parent's
``dispatch`` orchestration time.  The accounting calls are O(1) dict
updates per *phase report* (a handful per simulation, never per
instruction), so they are noise next to the phases being measured.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import spans as _spans


def add(phase: str, seconds: float) -> None:
    """Accumulate ``seconds`` of wall time under ``phase``."""
    _spans.add_phase(phase, seconds)


def snapshot() -> Dict[str, float]:
    """The accumulated seconds per phase (a copy, sorted by phase name)."""
    return _spans.phase_totals()


def reset() -> None:
    """Zero every phase (``repro profile`` calls this before its run)."""
    _spans.reset_phases()
