"""Result records produced by the timing cores.

Both the conventional out-of-order core and the FMC produce a
:class:`CoreResult`: the cycle count, the committed instruction count, the
full statistics snapshot and a handful of derived conveniences (IPC,
per-100M-instruction scaling) used throughout the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import StatsSnapshot


@dataclass(frozen=True)
class CoreResult:
    """Outcome of simulating one trace on one machine configuration."""

    trace_name: str
    config_name: str
    cycles: int
    committed_instructions: int
    stats: StatsSnapshot
    #: Fraction of cycles during which the Memory Processor was idle
    #: (high-locality mode); ``None`` for conventional cores.
    high_locality_fraction: Optional[float] = None
    #: Average number of simultaneously allocated epochs; ``None`` for
    #: conventional cores.
    mean_allocated_epochs: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise SimulationError("a simulation must take at least one cycle")
        if self.committed_instructions < 0:
            raise SimulationError("committed instruction count cannot be negative")

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed_instructions / self.cycles

    def counter(self, name: str, default: int = 0) -> int:
        """Return a raw counter value from the statistics snapshot."""
        return self.stats.get(name, default)

    def per_100m(self, name: str) -> float:
        """Return a counter scaled to events per 100 million committed instructions."""
        if self.committed_instructions == 0:
            return 0.0
        return self.stats.get(name, 0) * (100_000_000 / self.committed_instructions)

    def histogram(self, name: str) -> Optional[List[Tuple[int, int]]]:
        """Return a recorded histogram series, if present."""
        return self.stats.histograms.get(name)

    def speedup_over(self, baseline: "CoreResult") -> float:
        """Return this result's IPC relative to ``baseline``'s IPC."""
        if baseline.ipc == 0:
            raise SimulationError("baseline IPC is zero; speed-up undefined")
        return self.ipc / baseline.ipc

    def to_dict(self) -> Dict[str, Any]:
        """Lower this result to plain JSON types (the result-cache format).

        The representation round-trips exactly: counters and histogram bins
        are integers, and the float fields survive JSON because Python's
        ``repr``-based float serialization is lossless.
        """
        return {
            "trace_name": self.trace_name,
            "config_name": self.config_name,
            "cycles": self.cycles,
            "committed_instructions": self.committed_instructions,
            "counters": dict(self.stats.counters),
            "histograms": {
                name: [[lower, population] for lower, population in series]
                for name, series in self.stats.histograms.items()
            },
            "high_locality_fraction": self.high_locality_fraction,
            "mean_allocated_epochs": self.mean_allocated_epochs,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoreResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a cache entry)."""
        return cls(
            trace_name=data["trace_name"],
            config_name=data["config_name"],
            cycles=int(data["cycles"]),
            committed_instructions=int(data["committed_instructions"]),
            stats=StatsSnapshot(
                counters={name: int(value) for name, value in data.get("counters", {}).items()},
                histograms={
                    name: [(int(lower), int(population)) for lower, population in series]
                    for name, series in data.get("histograms", {}).items()
                },
            ),
            high_locality_fraction=data.get("high_locality_fraction"),
            mean_allocated_epochs=data.get("mean_allocated_epochs"),
            extra={name: float(value) for name, value in data.get("extra", {}).items()},
        )
