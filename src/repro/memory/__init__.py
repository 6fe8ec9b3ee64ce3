"""Cache hierarchy substrate.

The paper's default memory system (Table 1) is a 32 KB 4-way L1 with 32-byte
lines and 1-cycle latency, a 2 MB 4-way L2 with 10-cycle latency and a
400-cycle main memory.  This package provides:

* :mod:`repro.memory.replacement` -- the replacement-policy registry (LRU,
  FIFO, LFU, 2Q, ARC and the offline Belady OPT oracle).  A policy only
  ranks a set's ways for eviction.
* :mod:`repro.memory.cache` -- a set-associative cache model with access
  statistics and per-line lock/unlock bookkeeping.  Locked lines (needed
  by the line-based Epoch Resolution Table, which pins lines referenced by
  in-flight low-locality memory instructions) are the cache's alone: it
  replaces the first way in the policy's ranking whose line is not locked.
* :mod:`repro.memory.hierarchy` -- the two-level hierarchy plus main memory,
  returning the latency of each access.
* :mod:`repro.memory.mrc` -- the miss-ratio-curve profiler: miss rate versus
  cache size per workload family, for every registered policy.
"""

from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import (
    POLICY_NAMES,
    TIMING_POLICY_NAMES,
    ArcState,
    FifoState,
    LfuState,
    LruState,
    OptState,
    ReplacementPolicy,
    TwoQState,
    policy_factory,
    validate_policy_name,
)

__all__ = [
    "ArcState",
    "FifoState",
    "LfuState",
    "LruState",
    "MemoryHierarchy",
    "OptState",
    "POLICY_NAMES",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "TIMING_POLICY_NAMES",
    "TwoQState",
    "policy_factory",
    "validate_policy_name",
]
