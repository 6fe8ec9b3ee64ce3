"""Per-phase wall-time accounting: the one accumulator of phase seconds.

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

The totals accumulate whether or not anything is profiling; while the span
log of :mod:`repro.obs.spans` is recording, each report is also logged as
one ``phase`` span, which is how ``repro profile`` draws the phases on its
timeline.  A pool worker ships each task's phase delta back with its
result and the parent folds it in with :func:`merge`, so a parallel run's
totals hold the workers' phases beside the parent's ``dispatch``.  A report
is an O(1) dict update, a handful per simulation and never per
instruction, so it is noise next to the phases being measured.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping

from repro.obs import spans

_TOTALS: Dict[str, float] = {}


def add(phase: str, seconds: float) -> None:
    """Accumulate ``seconds`` of wall time under ``phase``."""
    _TOTALS[phase] = _TOTALS.get(phase, 0.0) + seconds
    if spans.recording():
        spans.record(phase, time.time() - seconds, seconds, category="phase")


def snapshot() -> Dict[str, float]:
    """The accumulated seconds per phase (a copy, sorted by phase name)."""
    return {phase: _TOTALS[phase] for phase in sorted(_TOTALS)}


def merge(delta: Mapping[str, float]) -> None:
    """Fold another process's phase seconds (a pool task's delta) in."""
    for phase, seconds in delta.items():
        _TOTALS[phase] = _TOTALS.get(phase, 0.0) + seconds


def reset() -> None:
    """Zero every phase (``repro profile`` calls this before its run)."""
    _TOTALS.clear()
