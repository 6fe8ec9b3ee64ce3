"""The Epoch-based Load/Store Queue and the baseline queue organisations.

This package contains the paper's primary contribution and everything it is
compared against:

* :class:`~repro.core.elsq.EpochBasedLSQ` -- the two-level, epoch-partitioned
  LSQ with line-based or hash-based Epoch Resolution Table, optional Store
  Queue Mirror, restricted disambiguation models and optional SVW load
  re-execution.
* :class:`~repro.core.conventional.ConventionalLSQ` -- the associative LSQ of
  the OoO-64 baseline (optionally with SVW re-execution).
* :class:`~repro.core.conventional.IdealCentralLSQ` -- the idealised
  single-cycle, unlimited central LSQ of Figure 7.

Supporting structures -- :class:`~repro.core.ert.EpochResolutionTable`,
:class:`~repro.core.sqm.StoreQueueMirror`,
:class:`~repro.core.svw.StoreVulnerabilityWindow`,
:class:`~repro.core.queues.StoreBuffer`, the address hash and the timed
records -- are exported for direct use and unit testing.
"""

from repro.core.bloom import AddressHash
from repro.core.conventional import ConventionalLSQ, IdealCentralLSQ
from repro.core.elsq import EpochBasedLSQ
from repro.core.ert import EpochResolutionTable, HashBasedERT, LineBasedERT, build_ert
from repro.core.policy import LSQPolicy
from repro.core.queues import StoreBuffer
from repro.core.records import EpochState, Locality, LoadRecord, StoreRecord
from repro.core.sqm import StoreQueueMirror
from repro.core.svw import StoreVulnerabilityWindow

__all__ = [
    "AddressHash",
    "ConventionalLSQ",
    "EpochBasedLSQ",
    "EpochResolutionTable",
    "EpochState",
    "HashBasedERT",
    "IdealCentralLSQ",
    "LineBasedERT",
    "LoadRecord",
    "Locality",
    "LSQPolicy",
    "StoreBuffer",
    "StoreQueueMirror",
    "StoreRecord",
    "StoreVulnerabilityWindow",
    "build_ert",
]
