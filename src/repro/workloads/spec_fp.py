"""SPEC-CPU-2000-FP-like synthetic kernels.

Each kernel is a :class:`~repro.workloads.base.WorkloadParameters` preset
loosely modelled on the memory behaviour of one floating-point benchmark of
the suite the paper uses.  The models are *behavioural caricatures*, not
functional reproductions: what matters for the LSQ study is

* large, streaming working sets whose misses are address-independent
  (high memory-level parallelism),
* very few loads or stores whose address depends on a missing load
  (Figure 1: almost all FP address calculations are high-locality),
* a low branch misprediction rate (loop-dominated control flow),
* pronounced phase behaviour (compute phases over cache-resident data
  alternating with memory phases streaming through far arrays), which is what
  lets the Memory Processor drain and idle between miss bursts (Figure 11),
* working sets spread over sizes between a few hundred kilobytes and several
  megabytes so that L2 capacity sweeps change the miss rate.

The parameters were calibrated so that the OoO-64 baseline lands near the
paper's reported SPEC FP IPC (~1.4) and the FMC large-window machine gains
roughly the paper's 2x; see EXPERIMENTS.md for the measured values.

The one deliberate outlier is :func:`equake_like`, which models the
``smvp()`` sparse matrix-vector product the paper singles out in Section 5.5:
both load *and store* addresses are produced by chasing index arrays, which
is why restricted-SAC loses heavily on that benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.common.errors import WorkloadError
from repro.workloads.base import MemoryRegion, WorkloadParameters

_KB = 1024
_MB = 1024 * 1024


def swim_like() -> WorkloadParameters:
    """Structured-grid stencil: long unit-stride streams over huge arrays."""
    return WorkloadParameters(
        name="swim_like",
        load_fraction=0.30,
        store_fraction=0.10,
        branch_fraction=0.04,
        fp_fraction=0.85,
        regions=(
            MemoryRegion(name="grid_a", size_bytes=12 * _MB, weight=0.020, pattern="stream", is_far=True),
            MemoryRegion(name="grid_b", size_bytes=12 * _MB, weight=0.012, pattern="stream", is_far=True),
            MemoryRegion(name="coeffs", size_bytes=48 * _KB, weight=0.55, pattern="stream"),
            MemoryRegion(name="locals", size_bytes=640 * _KB, weight=0.42, pattern="random"),
        ),
        chased_load_fraction=0.01,
        chased_store_fraction=0.002,
        forwarding_fraction=0.05,
        forwarding_distance_mean=20.0,
        miss_consumer_fraction=0.12,
        dependence_distance_mean=8.0,
        branch_mispredict_rate=0.004,
        mispredict_depends_on_miss_fraction=0.02,
        phase_length=2000,
        memory_phase_fraction=0.40,
        seed=11,
    )


def mgrid_like() -> WorkloadParameters:
    """Multigrid solver: nested streams over grids of several sizes."""
    return WorkloadParameters(
        name="mgrid_like",
        load_fraction=0.34,
        store_fraction=0.08,
        branch_fraction=0.03,
        fp_fraction=0.9,
        regions=(
            MemoryRegion(name="fine_grid", size_bytes=8 * _MB, weight=0.028, pattern="stream", is_far=True),
            MemoryRegion(name="coarse_grid", size_bytes=1 * _MB, weight=0.40, pattern="stream"),
            MemoryRegion(name="stencil", size_bytes=32 * _KB, weight=0.57, pattern="stream"),
        ),
        chased_load_fraction=0.01,
        chased_store_fraction=0.001,
        forwarding_fraction=0.05,
        forwarding_distance_mean=16.0,
        miss_consumer_fraction=0.10,
        dependence_distance_mean=10.0,
        branch_mispredict_rate=0.003,
        mispredict_depends_on_miss_fraction=0.02,
        phase_length=1800,
        memory_phase_fraction=0.40,
        seed=12,
    )


def applu_like() -> WorkloadParameters:
    """Blocked linear-algebra solver: medium working set, some reuse."""
    return WorkloadParameters(
        name="applu_like",
        load_fraction=0.32,
        store_fraction=0.11,
        branch_fraction=0.05,
        fp_fraction=0.85,
        regions=(
            MemoryRegion(name="blocks", size_bytes=3 * _MB, weight=0.05, pattern="stream", is_far=True),
            MemoryRegion(name="workspace", size_bytes=256 * _KB, weight=0.45, pattern="stream"),
            MemoryRegion(name="scalars", size_bytes=16 * _KB, weight=0.50, pattern="random"),
        ),
        chased_load_fraction=0.02,
        chased_store_fraction=0.004,
        forwarding_fraction=0.08,
        forwarding_distance_mean=10.0,
        miss_consumer_fraction=0.10,
        dependence_distance_mean=7.0,
        branch_mispredict_rate=0.008,
        mispredict_depends_on_miss_fraction=0.03,
        phase_length=1500,
        memory_phase_fraction=0.45,
        seed=13,
    )


def equake_like() -> WorkloadParameters:
    """Sparse matrix-vector product (smvp): index-chased loads *and* stores.

    This is the kernel that makes restricted store address calculation (RSAC)
    expensive in the paper: store addresses are obtained by dereferencing
    index arrays, so a visible fraction of store address calculations is
    miss-dependent.
    """
    return WorkloadParameters(
        name="equake_like",
        load_fraction=0.34,
        store_fraction=0.10,
        branch_fraction=0.06,
        fp_fraction=0.75,
        regions=(
            MemoryRegion(name="matrix_values", size_bytes=10 * _MB, weight=0.018, pattern="stream", is_far=True),
            MemoryRegion(name="index_arrays", size_bytes=6 * _MB, weight=0.012, pattern="stream", is_far=True),
            MemoryRegion(name="vector", size_bytes=3 * _MB, weight=0.020, pattern="random", is_far=True),
            MemoryRegion(name="locals", size_bytes=96 * _KB, weight=0.95, pattern="stream"),
        ),
        chased_load_fraction=0.18,
        chased_store_fraction=0.15,
        forwarding_fraction=0.06,
        forwarding_distance_mean=14.0,
        miss_consumer_fraction=0.15,
        dependence_distance_mean=6.0,
        branch_mispredict_rate=0.01,
        mispredict_depends_on_miss_fraction=0.05,
        phase_length=1500,
        memory_phase_fraction=0.5,
        seed=14,
    )


def art_like() -> WorkloadParameters:
    """Neural-network simulation: L2-sized working set scanned repeatedly."""
    return WorkloadParameters(
        name="art_like",
        load_fraction=0.36,
        store_fraction=0.07,
        branch_fraction=0.08,
        fp_fraction=0.8,
        regions=(
            MemoryRegion(name="weights", size_bytes=3500 * _KB, weight=0.06, pattern="stream", is_far=True),
            MemoryRegion(name="activations", size_bytes=256 * _KB, weight=0.40, pattern="stream"),
            MemoryRegion(name="locals", size_bytes=24 * _KB, weight=0.54, pattern="random"),
        ),
        chased_load_fraction=0.02,
        chased_store_fraction=0.002,
        forwarding_fraction=0.05,
        forwarding_distance_mean=18.0,
        miss_consumer_fraction=0.20,
        dependence_distance_mean=9.0,
        branch_mispredict_rate=0.006,
        mispredict_depends_on_miss_fraction=0.02,
        phase_length=2500,
        memory_phase_fraction=0.5,
        seed=15,
    )


def lucas_like() -> WorkloadParameters:
    """FFT-style kernel: strided streams, large footprint, deep FP chains."""
    return WorkloadParameters(
        name="lucas_like",
        load_fraction=0.28,
        store_fraction=0.14,
        branch_fraction=0.03,
        fp_fraction=0.9,
        regions=(
            MemoryRegion(name="signal", size_bytes=16 * _MB, weight=0.022, pattern="stream", stride=64, is_far=True),
            MemoryRegion(name="twiddles", size_bytes=1 * _MB, weight=0.38, pattern="stream"),
            MemoryRegion(name="scratch", size_bytes=128 * _KB, weight=0.60, pattern="stream"),
        ),
        chased_load_fraction=0.01,
        chased_store_fraction=0.001,
        forwarding_fraction=0.10,
        forwarding_distance_mean=8.0,
        miss_consumer_fraction=0.10,
        dependence_distance_mean=12.0,
        branch_mispredict_rate=0.002,
        mispredict_depends_on_miss_fraction=0.01,
        phase_length=2000,
        memory_phase_fraction=0.35,
        seed=16,
    )


#: Registry of the FP-like kernels by short name.
SPEC_FP_KERNELS: Dict[str, Callable[[], WorkloadParameters]] = {
    "swim": swim_like,
    "mgrid": mgrid_like,
    "applu": applu_like,
    "equake": equake_like,
    "art": art_like,
    "lucas": lucas_like,
}


def fp_kernel(name: str) -> WorkloadParameters:
    """Return the FP-like kernel registered under ``name``."""
    try:
        factory = SPEC_FP_KERNELS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown FP kernel {name!r}; available: {sorted(SPEC_FP_KERNELS)}"
        ) from None
    return factory()

