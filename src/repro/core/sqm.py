"""The Store Queue Mirror (SQM).

Section 4 of the paper adds one final structure to the ELSQ: a replica of the
low-locality store queues placed next to the Epoch Resolution Table in the
Cache Processor.  Its purpose is purely latency: a high-locality load that
must forward from a low-locality store would otherwise pay a full CP→MP→CP
network round trip (more than 8 cycles); with the mirror the forwarding data
is available one cycle after the ERT lookup.

The mirror also acts as the store buffer feeding commit, so it adds no
network traffic of its own.  For the timing model this reduces to two things,
which this class encapsulates:

* the forwarding latency charged to a high-locality load that hits in the
  ERT (``access_latency`` cycles after the ERT instead of a round trip), and
* an access counter used by the energy accounting of Section 6.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry


class StoreQueueMirror:
    """Latency/accounting model of the SQM."""

    def __init__(self, stats: StatsRegistry, access_latency: int = 1) -> None:
        if access_latency < 0:
            raise ConfigurationError("SQM access latency must be non-negative")
        self._counts = stats.counts
        self.access_latency = access_latency

    def access(self) -> int:
        """Record one SQM access and return its latency in cycles."""
        self._counts["sqm.accesses"] += 1
        return self.access_latency
