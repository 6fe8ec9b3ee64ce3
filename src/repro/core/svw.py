"""Store Vulnerability Window (SVW) load re-execution.

Section 3.5 / 5.6 of the paper evaluate an alternative to associative load
queues: make the load queue non-associative and instead *re-execute* at
commit any load that may have been violated by an older store, following
Roth's Store Vulnerability Window.  The filter deciding which loads
re-execute is the **Store Sequence Bloom Filter (SSBF)**: a small RAM indexed
by a hash of the address, holding the sequence number of the youngest store
that committed to that hash bucket.

A load is *vulnerable* when the SSBF entry for its address is younger than
the youngest store whose value the load could legitimately have observed:

* the store it forwarded from, when it forwarded, or
* the youngest store that had already written the cache (committed) when the
  load issued, otherwise.

Two variants are modelled (Figure 10):

* ``Blind`` -- only the SSBF decides.
* ``CheckStores`` -- additionally applies the *no-unresolved-store filter*: a
  load only re-executes if, at issue time, an older store with a still
  unknown address existed between the forwarding store and the load.

Re-executions are counted and each one charges a data-cache access at commit,
delaying the commit of every younger instruction -- which is how the scheme
loses IPC when the window (and therefore the vulnerability window) is large.
"""

from __future__ import annotations

import bisect
from typing import List

from repro.common.config import SVWConfig
from repro.common.stats import StatsRegistry
from repro.core.bloom import AddressHash
from repro.core.records import LoadRecord, StoreRecord


class StoreVulnerabilityWindow:
    """SSBF state plus the commit-time vulnerability check."""

    def __init__(self, config: SVWConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self._hash = AddressHash(config.ssbf_index_bits)
        #: SSBF: bucket index -> sequence number of the youngest committed store.
        self._ssbf: List[int] = [-1] * self._hash.num_buckets
        #: Commit history of stores for the "youngest store committed before
        #: cycle" query (commit cycles are non-decreasing, so bisect works).
        self._store_commit_cycles: List[int] = []
        self._store_commit_seqs: List[int] = []

    # ------------------------------------------------------------------
    # Store side
    # ------------------------------------------------------------------

    def store_committed(self, store: StoreRecord) -> None:
        """Update the SSBF when a store writes the data cache at commit."""
        self._ssbf[self._hash.index(store.address)] = store.seq
        self._store_commit_cycles.append(store.commit_cycle)
        self._store_commit_seqs.append(store.seq)

    def youngest_store_committed_before(self, cycle: int) -> int:
        """Sequence number of the youngest store committed strictly before ``cycle``."""
        position = bisect.bisect_left(self._store_commit_cycles, cycle)
        if position == 0:
            return -1
        return self._store_commit_seqs[position - 1]

    # ------------------------------------------------------------------
    # Load side
    # ------------------------------------------------------------------

    def check_load(self, load: LoadRecord) -> bool:
        """Decide at commit whether ``load`` must re-execute."""
        self.stats.bump("ssbf.lookups")
        if load.forwarded_from is not None and load.forwarded_from >= 0:
            threshold = load.forwarded_from
        else:
            threshold = self.youngest_store_committed_before(load.issue_cycle)
        entry_seq = self._ssbf[self._hash.index(load.address)]
        reexecute = threshold < entry_seq < load.seq
        if self.config.check_stores and not load.unresolved_older_store_at_issue:
            reexecute = False
        if reexecute:
            self.stats.bump("svw.reexecutions")
        return reexecute

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    @property
    def ssbf_entries(self) -> int:
        """Number of SSBF rows."""
        return self._hash.num_buckets
