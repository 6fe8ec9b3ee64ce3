"""The L1 / L2 / main-memory hierarchy.

:class:`MemoryHierarchy` composes two :class:`~repro.memory.cache.SetAssociativeCache`
levels with a fixed-latency main memory and answers the only question the
timing models ask: *how long does this access take?*  Inclusive allocation
is modelled (a miss allocates in both levels).  Each level has a distinct
cumulative latency (1, 11 and 411 cycles with the Table 1 defaults), and
the caches' ``probe`` tells where a line resides without disturbing it.

The hierarchy also exposes the L1 line-locking interface used by the
line-based Epoch Resolution Table.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MemoryHierarchyConfig
from repro.common.stats import StatsRegistry
from repro.memory.cache import SetAssociativeCache


class MemoryHierarchy:
    """Two cache levels plus main memory with Table 1 latencies."""

    def __init__(
        self, config: Optional[MemoryHierarchyConfig] = None, stats: Optional[StatsRegistry] = None
    ) -> None:
        self.config = config if config is not None else MemoryHierarchyConfig()
        self.stats = stats if stats is not None else StatsRegistry()
        self._counts = self.stats.counts
        self.l1 = SetAssociativeCache(self.config.l1, self.stats)
        self.l2 = SetAssociativeCache(self.config.l2, self.stats)

    def access(self, address: int) -> int:
        """Perform a read access and return its total latency.

        Latency is cumulative: an L2 hit pays L1 + L2 latency, a main-memory
        access pays L1 + L2 + memory latency, matching the lookup-then-miss
        flow of a real hierarchy.
        """
        counts = self._counts
        counts["hierarchy.accesses"] += 1
        counts["hierarchy.reads"] += 1
        config = self.config
        if self.l1.access(address):
            return config.l1.latency
        if self.l2.access(address):
            return config.l1.latency + config.l2.latency
        counts["hierarchy.main_memory_accesses"] += 1
        return config.l1.latency + config.l2.latency + config.main_memory_latency

    def warm_up(self, addresses) -> int:
        """Functionally warm the caches with ``addresses`` (no statistics recorded).

        Trace-driven runs over a few tens of thousands of instructions would
        otherwise be dominated by compulsory misses that a real SimPoint-length
        execution has long amortised.  The warm-up performs one stats-silent
        pass of the given addresses through the hierarchy so that the timed run
        starts from a steady-state tag state: structures that fit in a cache
        level are resident, structures that do not keep missing.

        Returns the number of addresses replayed.
        """
        self.l1.stats_enabled = False
        self.l2.stats_enabled = False
        count = 0
        try:
            for address in addresses:
                if not self.l1.access(address):
                    self.l2.access(address)
                count += 1
        finally:
            self.l1.stats_enabled = True
            self.l2.stats_enabled = True
        return count

    def warm_up_regions(self, regions) -> int:
        """Warm the caches from data-region footprints (stats-silent).

        Short synthetic traces cannot establish cache residency the way a
        SimPoint-length execution does, so the warm-up reconstructs the steady
        state analytically: every region's lines are replayed into the caches
        in *increasing access-density* order, so the most frequently accessed
        data is inserted last and survives LRU replacement.  Regions larger
        than a cache level naturally overflow it and keep missing during the
        timed run, which is exactly the paper's steady-state behaviour.

        ``regions`` is an iterable of
        :class:`~repro.isa.trace.RegionFootprint`.  Returns the number of
        line insertions performed.
        """
        footprints = sorted(regions, key=lambda region: region.access_density)
        if not footprints:
            return 0
        self.l1.stats_enabled = False
        self.l2.stats_enabled = False
        insertions = 0
        try:
            l2_line = self.config.l2.line_size
            l2_capacity_lines = self.config.l2.num_lines
            l1_line = self.config.l1.line_size
            l1_capacity_lines = self.config.l1.num_lines
            for region in footprints:
                lines_in_region = max(1, region.size_bytes // l2_line)
                fill_lines = min(lines_in_region, l2_capacity_lines)
                # Insert the *last* lines of the region: for streamed regions
                # the timed run restarts at the beginning, so data beyond the
                # resident tail misses, as it would in steady state.
                start = region.base_address + (lines_in_region - fill_lines) * l2_line
                for index in range(fill_lines):
                    self.l2.access(start + index * l2_line)
                    insertions += 1
            for region in footprints:
                lines_in_region = max(1, region.size_bytes // l1_line)
                fill_lines = min(lines_in_region, l1_capacity_lines)
                start = region.base_address + (lines_in_region - fill_lines) * l1_line
                for index in range(fill_lines):
                    self.l1.access(start + index * l1_line)
                    insertions += 1
        finally:
            self.l1.stats_enabled = True
            self.l2.stats_enabled = True
        return insertions

    # ------------------------------------------------------------------
    # Line locking passthrough (line-based ERT)
    # ------------------------------------------------------------------

    def lock_l1_line(self, address: int, owner: int) -> bool:
        """Lock the L1 line containing ``address`` for epoch ``owner``.

        Returns False on a lock conflict (every way of the set is locked).
        """
        return self.l1.lock_line(address, owner)

    def unlock_l1_owner(self, owner: int) -> int:
        """Release every L1 line lock held by epoch ``owner``."""
        return self.l1.unlock_owner(owner)
