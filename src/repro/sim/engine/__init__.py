"""The simulation engine: how a machine executes a trace.

A *simulation engine* drives one :class:`~repro.sim.configs.MachineConfig`
over one :class:`~repro.isa.trace.Trace` and produces a
:class:`~repro.uarch.result.CoreResult`.  Every simulation runs the one
registered engine, ``fast`` (:mod:`repro.sim.engine.fast`): one loop drives
both processor kinds (a conventional core is the FMC's Cache Processor
without a Memory Processor), over the trace's columns, with cache sets
warmed lazily on first touch, preallocated ring buffers instead of
per-instruction dict churn, hoisted configuration lookups and scalar
frontier tracking.

The processor models' own per-instruction walks
(:meth:`repro.uarch.ooo_core.OutOfOrderCore.run`,
:meth:`repro.fmc.processor.FMCProcessor.run`, reached as
``machine.build().run(trace)``) are the semantic ground truth.  No user
path runs them; the tests call them directly as the oracle the fast loop
must match **bit for bit** -- every counter, histogram bin and cycle count
-- across workload families, suites, seeds, fuzzed machine configurations
and fuzzed core geometries (``tests/differential/``).

The registry is where an engine can be swapped in under the default name:
:meth:`repro.sim.simulator.Simulator.run_trace` resolves
:data:`DEFAULT_ENGINE` on every run, so a wrapper registered as ``fast``
(the benchmark's phase probe, the golden tests' reference side) sees every
simulation.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable

from repro.common.errors import ConfigurationError

#: The engine every simulation runs.
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


# Register the built-in engine.  Imported last so the registry exists first.
from repro.sim.engine.fast import FastEngine  # noqa: E402

register_engine(FastEngine())
