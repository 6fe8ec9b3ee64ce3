"""Resource models for the one-pass timing cores.

The timing models in :mod:`repro.uarch` and :mod:`repro.fmc` are *one-pass*:
they walk the trace once, in program order, computing each instruction's
fetch, issue, completion and commit cycles.  Structural resources are modelled
with two small helpers:

* :class:`BandwidthAllocator` -- a per-cycle slot pool (fetch width, issue
  width, commit width, cache ports).  Asking for a slot at cycle *c* returns
  the earliest cycle >= *c* with capacity left.
* :class:`OccupancyWindow` -- a FIFO structure with a fixed number of entries
  (ROB, load queue, store queue, epoch pool).  Entry *i* cannot be allocated
  before entry *i - capacity* has been released; the window keeps the release
  cycles of the youngest ``capacity`` allocations and exposes the constraint.

Both helpers are deliberately simple and allocation-order driven, which is
exactly what a program-order walk needs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.common.errors import ConfigurationError


class BandwidthAllocator:
    """At most ``width`` events per cycle; events are requested in any order."""

    __slots__ = ("width", "_used")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ConfigurationError(f"bandwidth width must be positive, got {width}")
        self.width = width
        self._used: Dict[int, int] = {}

    def allocate(self, desired_cycle: int) -> int:
        """Reserve a slot at the earliest cycle >= ``desired_cycle``; return that cycle."""
        cycle = desired_cycle
        used = self._used
        while used.get(cycle, 0) >= self.width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def peak_cycle_usage(self) -> int:
        """Return the maximum number of slots ever used in a single cycle."""
        return max(self._used.values(), default=0)


class OccupancyWindow:
    """A FIFO-allocated structure with ``capacity`` entries.

    Callers first ask for the :meth:`constraint` (the release cycle of the
    entry that must leave before a new one can be allocated), combine it with
    whatever other constraints apply, and then :meth:`push` the new entry's
    release cycle.
    """

    __slots__ = ("capacity", "_releases")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"occupancy capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._releases: Deque[int] = deque()

    def constraint(self) -> int:
        """Earliest cycle at which a new entry may be allocated (0 if not full)."""
        if len(self._releases) < self.capacity:
            return 0
        return self._releases[0]

    def push(self, release_cycle: int) -> None:
        """Record a newly allocated entry that will be released at ``release_cycle``."""
        if len(self._releases) >= self.capacity:
            self._releases.popleft()
        self._releases.append(release_cycle)


class InOrderTracker:
    """Tracks a non-decreasing cycle frontier (in-order fetch, in-order commit)."""

    __slots__ = ("_cycle",)

    def __init__(self, start_cycle: int = 0) -> None:
        self._cycle = start_cycle

    @property
    def cycle(self) -> int:
        """The current frontier cycle."""
        return self._cycle

    def advance(self, cycle: int) -> int:
        """Move the frontier forward to at least ``cycle``; return the frontier."""
        if cycle > self._cycle:
            self._cycle = cycle
        return self._cycle
