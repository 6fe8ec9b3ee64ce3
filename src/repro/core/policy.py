"""The LSQ policy interface shared by every queue organisation.

A *policy* encapsulates one load/store-queue organisation -- the conventional
associative LSQ of the OoO-64 baseline, the idealised central LSQ, or the
Epoch-based LSQ with all of its variants -- behind a small event API driven
by the timing cores:

* :meth:`LSQPolicy.load_issued` -- called when a load's address is ready; the
  policy searches whatever store queues the organisation prescribes, possibly
  consults the ERT/SQM, accesses the data cache when no forwarding happens,
  and returns the load's latency.  It writes the rest of its verdict onto
  the :class:`~repro.core.records.LoadRecord`: the forwarding store
  (``forwarded_from``), an ordering violation (``violation``) and a
  line-lock squash (``squash_penalty``).
* :meth:`LSQPolicy.store_issued` -- called when a store's address is ready;
  the policy performs the violation search appropriate to the organisation,
  accounts for the accesses, and writes a line-lock insertion stall or
  squash onto the :class:`~repro.core.records.StoreRecord`
  (``insertion_stall``, ``squash_penalty``).
* :meth:`LSQPolicy.load_committed` / :meth:`LSQPolicy.store_committed` --
  called at in-order commit; ``load_committed`` returns the extra commit
  latency of an SVW re-execution (0 without one), and a store counts its
  data-cache write and updates the SVW.
* :meth:`LSQPolicy.epoch_committed` -- FMC only; the ELSQ clears the epoch's
  ERT columns, unlocks its cache lines and frees its queues.

Every answer is an int, a bool or nothing, so the drive loops allocate no
result objects.  Answers carry only *timing deltas* and flags; all
structural occupancy constraints (queue sizes limiting the in-flight
window) are enforced by the cores via the configuration, not by the
policies.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.stats import StatsRegistry
from repro.core.records import LoadRecord, StoreRecord
from repro.core.svw import StoreVulnerabilityWindow
from repro.memory.hierarchy import MemoryHierarchy


class LSQPolicy(abc.ABC):
    """Abstract base class of every load/store-queue organisation."""

    #: The data caches loads and re-executions access.
    hierarchy: MemoryHierarchy

    #: The SVW of an organisation whose load queue is replaced by load
    #: re-execution at commit; ``None`` when loads are checked by
    #: associative load-queue searches.
    _svw: Optional[StoreVulnerabilityWindow] = None

    def __init__(self, stats: StatsRegistry) -> None:
        self.stats = stats
        self._counts = stats.counts

    # -- issue-time events ------------------------------------------------

    @abc.abstractmethod
    def load_issued(self, load: LoadRecord) -> int:
        """Handle a load whose address just became ready; return its latency."""

    @abc.abstractmethod
    def store_issued(self, store: StoreRecord) -> None:
        """Handle a store whose address just became ready."""

    # -- commit-time events -----------------------------------------------

    def load_committed(self, load: LoadRecord) -> int:
        """Handle a load reaching in-order commit; return the extra commit latency.

        With an SVW, a load the SSBF marks vulnerable re-executes: one more
        data-cache access, whose latency delays the commit.
        """
        if self._svw is None or not self._svw.check_load(load):
            return 0
        self._counts["cache.accesses"] += 1
        self._counts["cache.reexecution_accesses"] += 1
        return self.hierarchy.access(load.address)

    def store_committed(self, store: StoreRecord) -> None:
        """Handle a store reaching in-order commit: count the cache write."""
        self._counts["cache.accesses"] += 1
        self._counts["cache.store_writebacks"] += 1
        if self._svw is not None:
            self._svw.store_committed(store)

    # -- epoch lifecycle (FMC / ELSQ only) ----------------------------------

    def epoch_opened(self, epoch_id: int, cycle: int) -> None:
        """Notification that a new epoch started filling at ``cycle``."""

    def epoch_committed(self, epoch_id: int, cycle: int) -> None:
        """Notification that an epoch fully committed at ``cycle``."""

    # -- end of run ----------------------------------------------------------

    def finalize(self, total_cycles: int, committed_instructions: int) -> None:
        """Hook called once at the end of a simulation run."""

    # -- helpers -------------------------------------------------------------

    def record_wrong_path_activity(self, wrong_path_loads: int, wrong_path_stores: int) -> None:
        """Account for speculative wrong-path LSQ activity.

        Wrong-path instructions are not part of the committed trace, so the
        cores estimate how many of them issued (Section 6 of the paper notes
        that SPEC INT LSQ activity grows with window aggressiveness because of
        them) and report the estimate here.  The default implementation adds
        them to the first-level queue access counters, which is where
        wrong-path work lands in every organisation.  With SVW there is no
        load queue for wrong-path stores to search (Table 2 reports zero
        HL-LQ accesses for SVW configurations).
        """
        if wrong_path_loads > 0:
            self.stats.bump("hl_sq.searches", wrong_path_loads)
            self.stats.bump("cache.accesses", wrong_path_loads)
            self.stats.bump("wrong_path.loads", wrong_path_loads)
        if wrong_path_stores > 0:
            if self._svw is None:
                self.stats.bump("hl_lq.searches", wrong_path_stores)
            self.stats.bump("wrong_path.stores", wrong_path_stores)
