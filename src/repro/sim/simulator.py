"""The simulation driver: run machines over traces and suites.

:class:`Simulator` is the top-level entry point of the library: give it a
:class:`~repro.sim.configs.MachineConfig` and it will run single traces
(:meth:`Simulator.run_trace`) or whole workload suites
(:meth:`Simulator.run_suite`), producing per-workload
:class:`~repro.uarch.result.CoreResult` records and suite-level
:class:`SuiteResult` aggregates.  The aggregation follows the paper's
methodology (Section 5.1): every metric is the arithmetic mean over the
suite's members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.isa.trace import Trace
from repro.sim.configs import MachineConfig
from repro.sim.engine import DEFAULT_ENGINE, engine_by_name
from repro.uarch.result import CoreResult
from repro.workloads.base import SyntheticWorkload, WorkloadParameters
from repro.workloads.suite import WorkloadSuite

#: Default trace length per suite member.  Long enough for the large-window
#: behaviours (epoch recycling, SVW windows, ERT population) to reach steady
#: state, short enough for pure-Python sweeps.
DEFAULT_INSTRUCTIONS_PER_WORKLOAD = 30_000


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate of one machine over one workload suite."""

    machine_name: str
    suite_name: str
    results: Dict[str, CoreResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.results:
            raise SimulationError("a suite result needs at least one workload result")

    @property
    def mean_ipc(self) -> float:
        """Arithmetic mean IPC over the suite (the paper's headline metric)."""
        values = [result.ipc for result in self.results.values()]
        return sum(values) / len(values)

    def mean_counter_per_100m(self, counter: str) -> float:
        """Arithmetic mean of a counter scaled to per-100M-instruction rates."""
        values = [result.per_100m(counter) for result in self.results.values()]
        return sum(values) / len(values)

    def mean_counter_per_100m_millions(self, counter: str) -> float:
        """Same as :meth:`mean_counter_per_100m` but in millions (Table 2 unit)."""
        return self.mean_counter_per_100m(counter) / 1e6

    def mean_high_locality_fraction(self) -> Optional[float]:
        """Mean fraction of cycles with an idle Memory Processor, if available."""
        values = [
            result.high_locality_fraction
            for result in self.results.values()
            if result.high_locality_fraction is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def mean_allocated_epochs(self) -> Optional[float]:
        """Mean number of simultaneously allocated epochs, if available."""
        values = [
            result.mean_allocated_epochs
            for result in self.results.values()
            if result.mean_allocated_epochs is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def speedup_over(self, baseline: "SuiteResult") -> float:
        """Mean IPC of this result relative to the baseline's mean IPC."""
        if baseline.mean_ipc <= 0:
            raise SimulationError("baseline mean IPC is zero; speed-up undefined")
        return self.mean_ipc / baseline.mean_ipc

    def workload_names(self) -> List[str]:
        """The workloads contributing to this aggregate, in insertion order."""
        return list(self.results)


class Simulator:
    """Runs one machine configuration over traces and workload suites."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def run_trace(self, trace: Trace) -> CoreResult:
        """Simulate a single trace through the simulation engine.

        The engine is resolved from the registry on every run, so an engine
        registered under :data:`~repro.sim.engine.DEFAULT_ENGINE` (a timing
        probe, a test's reference walk) sees every simulation.
        """
        return engine_by_name(DEFAULT_ENGINE).run(self.machine, trace)

    def run_workload(
        self,
        parameters: WorkloadParameters,
        num_instructions: int = DEFAULT_INSTRUCTIONS_PER_WORKLOAD,
        seed: Optional[int] = None,
    ) -> CoreResult:
        """Generate one workload's trace and simulate it."""
        trace = SyntheticWorkload(parameters, seed=seed).generate(num_instructions)
        return self.run_trace(trace)

    def run_suite(
        self,
        suite: WorkloadSuite,
        num_instructions: int = DEFAULT_INSTRUCTIONS_PER_WORKLOAD,
        seed: Optional[int] = None,
        traces: Optional[Sequence[Trace]] = None,
    ) -> SuiteResult:
        """Simulate every member of a suite and aggregate.

        ``traces`` may be supplied to run pre-generated traces instead of
        generating the suite's, so several machines can be compared over
        the same instruction streams.  The figure sweeps do not pass them:
        they run through :class:`~repro.exp.runner.ExperimentRunner`, whose
        per-process memo generates each trace once.
        """
        if traces is None:
            traces = suite.generate_traces(num_instructions, seed=seed)
        results = {trace.name: self.run_trace(trace) for trace in traces}
        return SuiteResult(
            machine_name=self.machine.name, suite_name=suite.name, results=results
        )
