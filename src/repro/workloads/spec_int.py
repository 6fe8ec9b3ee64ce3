"""SPEC-CPU-2000-INT-like synthetic kernels.

Counterparts to :mod:`repro.workloads.spec_fp` for the integer side of the
suite.  The integer kernels differ from the FP kernels in exactly the ways
the paper's analysis depends on:

* pointer-heavy data structures, so a visible fraction of *load* address
  calculations depends on a previous missing load (serialised misses, low
  memory-level parallelism, low-locality loads in Figure 1),
* higher branch density and higher misprediction rates, with a substantial
  fraction of mispredictions depending on missing loads -- this is what limits
  SPEC INT speedups to ~1.2x on the large window (Figure 7) and what inflates
  wrong-path LSQ activity (Section 6),
* smaller but randomly accessed working sets, so the line-based ERT's
  cache-line locking sees more set conflicts than under streaming FP access
  (Figure 8b/c), and
* more frequent, shorter-distance store→load forwarding (spills, struct
  fields), which favours local (in-epoch / HL) forwarding.

Like the FP kernels, the miss-producing (far) regions are visited in phases
so the Memory Processor drains between bursts, and the parameters are
calibrated so the OoO-64 baseline lands near the paper's SPEC INT IPC
(~1.55) with a modest FMC gain; see EXPERIMENTS.md for measured values.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.common.errors import WorkloadError
from repro.workloads.base import MemoryRegion, WorkloadParameters

_KB = 1024
_MB = 1024 * 1024


def mcf_like() -> WorkloadParameters:
    """Network-simplex pointer chasing over a multi-megabyte graph."""
    return WorkloadParameters(
        name="mcf_like",
        load_fraction=0.32,
        store_fraction=0.09,
        branch_fraction=0.18,
        fp_fraction=0.0,
        regions=(
            MemoryRegion(name="arcs", size_bytes=24 * _MB, weight=0.018, pattern="random", is_far=True),
            MemoryRegion(name="nodes", size_bytes=4 * _MB, weight=0.012, pattern="random", is_far=True),
            MemoryRegion(name="stack", size_bytes=48 * _KB, weight=0.55, pattern="stream"),
            MemoryRegion(name="locals", size_bytes=512 * _KB, weight=0.42, pattern="random"),
        ),
        chased_load_fraction=0.22,
        chased_store_fraction=0.02,
        forwarding_fraction=0.10,
        forwarding_distance_mean=8.0,
        miss_consumer_fraction=0.25,
        dependence_distance_mean=5.0,
        branch_mispredict_rate=0.055,
        mispredict_depends_on_miss_fraction=0.50,
        phase_length=1500,
        memory_phase_fraction=0.45,
        seed=21,
    )


def gcc_like() -> WorkloadParameters:
    """Compiler-style workload: branchy, medium working set, many short forwards."""
    return WorkloadParameters(
        name="gcc_like",
        load_fraction=0.26,
        store_fraction=0.14,
        branch_fraction=0.20,
        fp_fraction=0.0,
        regions=(
            MemoryRegion(name="ir_nodes", size_bytes=2 * _MB, weight=0.015, pattern="random", is_far=True),
            MemoryRegion(name="tables", size_bytes=512 * _KB, weight=0.40, pattern="random"),
            MemoryRegion(name="stack", size_bytes=64 * _KB, weight=0.585, pattern="stream"),
        ),
        chased_load_fraction=0.10,
        chased_store_fraction=0.012,
        forwarding_fraction=0.16,
        forwarding_distance_mean=6.0,
        miss_consumer_fraction=0.12,
        dependence_distance_mean=4.0,
        branch_mispredict_rate=0.045,
        mispredict_depends_on_miss_fraction=0.30,
        phase_length=1200,
        memory_phase_fraction=0.45,
        seed=22,
    )


def gzip_like() -> WorkloadParameters:
    """Compression: small hot dictionary plus a streaming input buffer."""
    return WorkloadParameters(
        name="gzip_like",
        load_fraction=0.24,
        store_fraction=0.12,
        branch_fraction=0.18,
        fp_fraction=0.0,
        regions=(
            MemoryRegion(name="window", size_bytes=256 * _KB, weight=0.55, pattern="random"),
            MemoryRegion(name="input", size_bytes=6 * _MB, weight=0.016, pattern="stream", is_far=True),
            MemoryRegion(name="huffman", size_bytes=16 * _KB, weight=0.434, pattern="random"),
        ),
        chased_load_fraction=0.06,
        chased_store_fraction=0.01,
        forwarding_fraction=0.14,
        forwarding_distance_mean=7.0,
        miss_consumer_fraction=0.10,
        dependence_distance_mean=4.0,
        branch_mispredict_rate=0.04,
        mispredict_depends_on_miss_fraction=0.20,
        phase_length=1800,
        memory_phase_fraction=0.40,
        seed=23,
    )


def parser_like() -> WorkloadParameters:
    """Natural-language parser: dictionary lookups and linked structures."""
    return WorkloadParameters(
        name="parser_like",
        load_fraction=0.28,
        store_fraction=0.11,
        branch_fraction=0.21,
        fp_fraction=0.0,
        regions=(
            MemoryRegion(name="dictionary", size_bytes=5 * _MB, weight=0.015, pattern="random", is_far=True),
            MemoryRegion(name="parse_heap", size_bytes=768 * _KB, weight=0.40, pattern="random"),
            MemoryRegion(name="stack", size_bytes=48 * _KB, weight=0.585, pattern="stream"),
        ),
        chased_load_fraction=0.16,
        chased_store_fraction=0.02,
        forwarding_fraction=0.15,
        forwarding_distance_mean=6.0,
        miss_consumer_fraction=0.15,
        dependence_distance_mean=4.0,
        branch_mispredict_rate=0.05,
        mispredict_depends_on_miss_fraction=0.40,
        phase_length=1500,
        memory_phase_fraction=0.45,
        seed=24,
    )


def vpr_like() -> WorkloadParameters:
    """Place-and-route: graph walks over a medium netlist plus random probes."""
    return WorkloadParameters(
        name="vpr_like",
        load_fraction=0.30,
        store_fraction=0.10,
        branch_fraction=0.16,
        fp_fraction=0.10,
        regions=(
            MemoryRegion(name="netlist", size_bytes=3 * _MB, weight=0.02, pattern="random", is_far=True),
            MemoryRegion(name="routing_grid", size_bytes=1024 * _KB, weight=0.35, pattern="random"),
            MemoryRegion(name="locals", size_bytes=48 * _KB, weight=0.63, pattern="stream"),
        ),
        chased_load_fraction=0.12,
        chased_store_fraction=0.015,
        forwarding_fraction=0.12,
        forwarding_distance_mean=8.0,
        miss_consumer_fraction=0.14,
        dependence_distance_mean=5.0,
        branch_mispredict_rate=0.04,
        mispredict_depends_on_miss_fraction=0.30,
        phase_length=1500,
        memory_phase_fraction=0.45,
        seed=25,
    )


def bzip2_like() -> WorkloadParameters:
    """Block-sorting compression: cache-resident hot loop with streaming input."""
    return WorkloadParameters(
        name="bzip2_like",
        load_fraction=0.27,
        store_fraction=0.13,
        branch_fraction=0.17,
        fp_fraction=0.0,
        regions=(
            MemoryRegion(name="block", size_bytes=850 * _KB, weight=0.55, pattern="random"),
            MemoryRegion(name="input", size_bytes=8 * _MB, weight=0.012, pattern="stream", is_far=True),
            MemoryRegion(name="counters", size_bytes=64 * _KB, weight=0.438, pattern="random"),
        ),
        chased_load_fraction=0.05,
        chased_store_fraction=0.01,
        forwarding_fraction=0.13,
        forwarding_distance_mean=9.0,
        miss_consumer_fraction=0.08,
        dependence_distance_mean=5.0,
        branch_mispredict_rate=0.045,
        mispredict_depends_on_miss_fraction=0.15,
        phase_length=2000,
        memory_phase_fraction=0.40,
        seed=26,
    )


#: Registry of the INT-like kernels by short name.
SPEC_INT_KERNELS: Dict[str, Callable[[], WorkloadParameters]] = {
    "mcf": mcf_like,
    "gcc": gcc_like,
    "gzip": gzip_like,
    "parser": parser_like,
    "vpr": vpr_like,
    "bzip2": bzip2_like,
}


def int_kernel(name: str) -> WorkloadParameters:
    """Return the INT-like kernel registered under ``name``."""
    try:
        factory = SPEC_INT_KERNELS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown INT kernel {name!r}; available: {sorted(SPEC_INT_KERNELS)}"
        ) from None
    return factory()

