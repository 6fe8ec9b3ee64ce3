"""Pluggable simulation engines: how a machine executes a trace.

A *simulation engine* is a strategy for driving one
:class:`~repro.sim.configs.MachineConfig` over one
:class:`~repro.isa.trace.Trace` and producing a
:class:`~repro.uarch.result.CoreResult`.  Two engines are registered:

* ``reference`` -- the original per-instruction walk implemented by the
  processor models themselves (:meth:`repro.uarch.ooo_core.OutOfOrderCore.run`,
  :meth:`repro.fmc.processor.FMCProcessor.run`).  This is the semantic ground
  truth; its code paths are deliberately left untouched by the optimisation
  work.
* ``fast`` -- an optimised drive loop over the *same* processor and LSQ
  objects (:mod:`repro.sim.engine.fast`): one loop drives both processor
  kinds (a conventional core is the FMC's Cache Processor without a Memory
  Processor), over the trace's columns, with cache sets warmed lazily on
  first touch, preallocated ring buffers instead of per-instruction dict
  churn, hoisted configuration lookups and scalar frontier tracking.  It is
  required to be **bit-identical** to ``reference`` -- every counter,
  histogram bin and cycle count -- and ``tests/differential/`` enforces
  exactly that across workload families, suites, seeds, fuzzed machine
  configurations and fuzzed core geometries.

The engine choice is part of a machine's identity
(:attr:`repro.sim.configs.MachineConfig.engine`), flows through the
orchestration layer into every job's content address, and is selectable from
the CLI and the service (``--engine``).
"""

from __future__ import annotations

from typing import Dict, List, Protocol, runtime_checkable

from repro.common.errors import ConfigurationError

#: Engine used when a machine does not name one explicitly.
DEFAULT_ENGINE = "fast"


@runtime_checkable
class Engine(Protocol):
    """Strategy interface: run one machine over one trace."""

    name: str

    def run(self, machine, trace):  # pragma: no cover - protocol signature
        """Simulate ``trace`` on ``machine`` and return a ``CoreResult``."""
        ...


_ENGINES: Dict[str, Engine] = {}


def register_engine(engine: Engine) -> Engine:
    """Register an engine under its ``name`` (last registration wins)."""
    if not getattr(engine, "name", ""):
        raise ConfigurationError("an engine must carry a non-empty name")
    _ENGINES[engine.name] = engine
    return engine


def engine_by_name(name: str) -> Engine:
    """Resolve an engine name, raising a helpful error for unknown names."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown simulation engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None


def engine_names() -> List[str]:
    """Every registered engine name, sorted (CLI choices, error messages)."""
    return sorted(_ENGINES)


# Register the built-in engines.  Imported last so the registry exists first.
from repro.sim.engine.fast import FastEngine  # noqa: E402
from repro.sim.engine.reference import ReferenceEngine  # noqa: E402

register_engine(ReferenceEngine())
register_engine(FastEngine())
