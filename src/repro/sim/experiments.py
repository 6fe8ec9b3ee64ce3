"""Experiment harness: one function per table / figure of the paper.

Every experiment of the evaluation section is reproduced by a function in
this module.  Each function takes an :class:`ExperimentContext` (which owns
the workload suites, the trace length, the seed and the runner every
simulation goes through) and returns a plain result object that the
benchmark scripts print in the same rows/series the paper reports.

Every experiment is expressed in two halves:

* a ``*_sweep`` builder that **declares the sweep as data** -- a list of
  :class:`~repro.exp.runner.SweepCase` records naming which machine runs
  over which suite -- and
* the experiment function itself, which hands the declared cases to
  :meth:`ExperimentContext.run_sweep` and post-processes the resulting
  aggregates into the figure's series.

Because the simulation work is fully described by the case list, the
orchestration layer (:mod:`repro.exp`) can deduplicate, cache and fan the
whole figure out over a process pool.  Every sweep runs through an
:class:`~repro.exp.runner.ExperimentRunner` -- an inline one when the
caller attaches none -- and serial and parallel runners produce
bit-identical numbers.

| Function                          | Paper artifact |
| --------------------------------- | -------------- |
| :func:`fig1_execution_locality`   | Figure 1       |
| :func:`sec52_epoch_sizing`        | Section 5.2    |
| :func:`fig7_speedups`             | Figure 7       |
| :func:`fig8a_filter_accuracy`     | Figure 8 (a)   |
| :func:`fig8bc_cache_sensitivity`  | Figure 8 (b,c) |
| :func:`fig9_restricted_models`    | Figure 9       |
| :func:`fig10_svw_reexecution`     | Figure 10      |
| :func:`fig11_high_locality_mode`  | Figure 11      |
| :func:`table2_access_counts`      | Table 2        |
| :func:`sec6_energy_comparison`    | Section 6      |
| :func:`family_sweep`              | (beyond-paper) |
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import DisambiguationModel
from repro.energy.accounting import EnergyModel
from repro.exp.runner import ExperimentRunner, SweepCase
from repro.sim.configs import (
    MachineConfig,
    fmc_central,
    fmc_elsq,
    fmc_hash,
    fmc_hash_rsac,
    fmc_hash_svw,
    fmc_line,
    ooo_64,
    ooo_64_svw,
)
from repro.sim.simulator import DEFAULT_INSTRUCTIONS_PER_WORKLOAD, SuiteResult
from repro.workloads.suite import WorkloadSuite, spec_fp_suite, spec_int_suite


@dataclass
class ExperimentContext:
    """Shared state of one experiment campaign.

    The context pins the two suites, the trace length and the RNG seed, and
    routes every simulation through its
    :class:`~repro.exp.runner.ExperimentRunner` (result cache, process
    pool).  Without one it holds an inline ``ExperimentRunner()``; either
    way every machine configuration replays exactly the same instruction
    streams, because a trace is a pure function of its workload, length
    and seed.
    """

    fp_suite: WorkloadSuite = field(default_factory=spec_fp_suite)
    int_suite: WorkloadSuite = field(default_factory=spec_int_suite)
    instructions_per_workload: int = DEFAULT_INSTRUCTIONS_PER_WORKLOAD
    seed: Optional[int] = None
    runner: ExperimentRunner = field(default_factory=ExperimentRunner)
    #: Simulation engine override applied to every machine the campaign runs
    #: (``None`` keeps each machine's own choice -- the fast engine unless a
    #: configuration says otherwise).
    engine: Optional[str] = None
    #: Replacement-policy override applied to both cache levels of every
    #: machine the campaign runs (``None`` keeps each machine's own
    #: configuration, LRU unless a hierarchy says otherwise).
    policy: Optional[str] = None

    def _apply_engine(self, machine: MachineConfig) -> MachineConfig:
        """Rebind ``machine`` to the campaign's engine override, if any."""
        if self.engine is None or machine.engine == self.engine:
            return machine
        return machine.with_engine(self.engine)

    def _apply_policy(self, machine: MachineConfig) -> MachineConfig:
        """Rebind ``machine`` to the campaign's replacement-policy override."""
        if self.policy is None or (
            machine.hierarchy.l1.replacement_policy == self.policy
            and machine.hierarchy.l2.replacement_policy == self.policy
        ):
            return machine
        return machine.with_policy(self.policy)

    def _apply_overrides(self, machine: MachineConfig) -> MachineConfig:
        return self._apply_policy(self._apply_engine(machine))

    def suites(self) -> Dict[str, WorkloadSuite]:
        """The two suites keyed by their paper labels."""
        return {"SPEC FP": self.fp_suite, "SPEC INT": self.int_suite}

    def run_sweep(
        self,
        cases: Sequence[SweepCase],
        extra_suites: Optional[Dict[str, WorkloadSuite]] = None,
    ) -> Dict[str, SuiteResult]:
        """Run a declared sweep as one runner batch; returns ``{case_id: SuiteResult}``.

        ``extra_suites`` lets an experiment sweep over suites beyond the
        campaign's two SPEC-like ones (the workload families do this) without
        mutating the context -- the merge is per-call, so a later experiment
        sharing this context still sees only the campaign suites.
        """
        suites = dict(self.suites())
        if extra_suites:
            suites.update(extra_suites)
        if self.engine is not None or self.policy is not None:
            cases = [
                dataclasses.replace(case, machine=self._apply_overrides(case.machine))
                for case in cases
            ]
        return self.runner.run_cases(
            cases, suites, self.instructions_per_workload, seed=self.seed
        )


def quick_context(instructions: int = 6_000, seed: int = 7) -> ExperimentContext:
    """A reduced campaign (two workloads per suite, short traces) for tests."""
    from repro.workloads.suite import quick_fp_suite, quick_int_suite

    return ExperimentContext(
        fp_suite=quick_fp_suite(),
        int_suite=quick_int_suite(),
        instructions_per_workload=instructions,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 1: execution locality of address calculations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocalityDistribution:
    """Decode→address-calculation latency distribution for one suite."""

    suite_label: str
    load_series: List[Tuple[int, int]]
    store_series: List[Tuple[int, int]]
    load_fraction_within_bin: float
    store_fraction_within_bin: float
    load_p95: int
    load_p99: int
    store_p95: int
    store_p99: int


def fig1_sweep(context: ExperimentContext) -> List[SweepCase]:
    """Figure 1's sweep: the large-window FMC machine over both suites."""
    machine = fmc_hash()
    return [
        SweepCase(case_id=label, machine=machine, suite_label=label)
        for label in context.suites()
    ]


def fig1_execution_locality(context: ExperimentContext) -> Dict[str, LocalityDistribution]:
    """Reproduce Figure 1 on the large-window FMC machine."""
    sweep_results = context.run_sweep(fig1_sweep(context))
    output: Dict[str, LocalityDistribution] = {}
    for label in context.suites():
        suite_result = sweep_results[label]
        merged_loads: Dict[int, int] = {}
        merged_stores: Dict[int, int] = {}
        load_within = store_within = 0
        p95_load = p99_load = p95_store = p99_store = 0
        for result in suite_result.results.values():
            load_hist = result.histogram("decode_to_address.loads") or []
            store_hist = result.histogram("decode_to_address.stores") or []
            for lower, population in load_hist:
                merged_loads[lower] = merged_loads.get(lower, 0) + population
            for lower, population in store_hist:
                merged_stores[lower] = merged_stores.get(lower, 0) + population
        load_series = sorted(merged_loads.items())
        store_series = sorted(merged_stores.items())
        load_total = sum(population for _, population in load_series)
        store_total = sum(population for _, population in store_series)
        if load_series and load_total:
            load_within = load_series[0][1]
            p95_load = _percentile_bound(load_series, 0.95)
            p99_load = _percentile_bound(load_series, 0.99)
        if store_series and store_total:
            store_within = store_series[0][1]
            p95_store = _percentile_bound(store_series, 0.95)
            p99_store = _percentile_bound(store_series, 0.99)
        output[label] = LocalityDistribution(
            suite_label=label,
            load_series=load_series,
            store_series=store_series,
            load_fraction_within_bin=(load_within / load_total) if load_total else 0.0,
            store_fraction_within_bin=(store_within / store_total) if store_total else 0.0,
            load_p95=p95_load,
            load_p99=p99_load,
            store_p95=p95_store,
            store_p99=p99_store,
        )
    return output


def _percentile_bound(series: Sequence[Tuple[int, int]], percentile: float) -> int:
    total = sum(population for _, population in series)
    if total == 0:
        return 0
    target = percentile * total
    running = 0
    bin_width = series[1][0] - series[0][0] if len(series) > 1 else 30
    for lower, population in series:
        running += population
        if running >= target:
            return lower + bin_width
    return series[-1][0] + bin_width


# ----------------------------------------------------------------------
# Section 5.2: epoch / per-epoch LSQ sizing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpochSizingPoint:
    """IPC of one per-epoch load/store-queue sizing."""

    load_entries: int
    store_entries: int
    mean_ipc: float
    slowdown_vs_unlimited: float


#: The per-epoch sizings of Section 5.2; the last entry is the "unlimited"
#: reference the slowdowns are measured against.
SEC52_DEFAULT_SIZINGS: Tuple[Tuple[int, int], ...] = (
    (16, 8),
    (32, 16),
    (64, 32),
    (128, 64),
    (1024, 1024),
)


def sec52_sweep(
    sizings: Sequence[Tuple[int, int]] = SEC52_DEFAULT_SIZINGS,
) -> List[SweepCase]:
    """Section 5.2's sweep: one per-epoch sizing per case, SPEC-FP-like suite."""
    return [
        SweepCase(
            case_id=f"{loads}L{stores}S",
            machine=fmc_elsq(
                epoch_load_entries=loads,
                epoch_store_entries=stores,
                name=f"FMC-Hash-{loads}L{stores}S",
            ),
            suite_label="SPEC FP",
        )
        for loads, stores in sizings
    ]


def sec52_epoch_sizing(
    context: ExperimentContext,
    sizings: Sequence[Tuple[int, int]] = SEC52_DEFAULT_SIZINGS,
) -> List[EpochSizingPoint]:
    """Reproduce the Section 5.2 sizing study on the SPEC-FP-like suite.

    The last sizing in ``sizings`` is treated as the "unlimited" reference
    (the paper sizes against an unlimited LSQ and accepts ~1% slowdown for
    64 loads / 32 stores per epoch).
    """
    sweep_results = context.run_sweep(sec52_sweep(sizings))
    results: List[Tuple[Tuple[int, int], float]] = [
        ((loads, stores), sweep_results[f"{loads}L{stores}S"].mean_ipc)
        for loads, stores in sizings
    ]
    reference_ipc = results[-1][1]
    return [
        EpochSizingPoint(
            load_entries=loads,
            store_entries=stores,
            mean_ipc=ipc,
            slowdown_vs_unlimited=1.0 - (ipc / reference_ipc if reference_ipc else 0.0),
        )
        for (loads, stores), ipc in results
    ]


# ----------------------------------------------------------------------
# Figure 7: speed-up of the large-window LSQ schemes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedupRow:
    """Speed-up of one machine over the OoO-64 baseline, per suite."""

    machine_name: str
    speedup_by_suite: Dict[str, float]
    ipc_by_suite: Dict[str, float]


def fig7_machines() -> List[MachineConfig]:
    """The five large-window LSQ schemes Figure 7 compares."""
    return [
        fmc_central("Central LSQ"),
        fmc_line(store_queue_mirror=False, name="ELSQ Line ERT"),
        fmc_line(store_queue_mirror=True, name="ELSQ Line ERT + SQM"),
        fmc_hash(store_queue_mirror=False, name="ELSQ Hash ERT"),
        fmc_hash(store_queue_mirror=True, name="ELSQ Hash ERT + SQM"),
    ]


def fig7_sweep(context: ExperimentContext) -> List[SweepCase]:
    """Figure 7's sweep: the baseline and every LSQ scheme over both suites."""
    machines = [ooo_64()] + fig7_machines()
    return [
        SweepCase(case_id=f"{machine.name}|{label}", machine=machine, suite_label=label)
        for machine in machines
        for label in context.suites()
    ]


def fig7_speedups(context: ExperimentContext) -> Tuple[List[SpeedupRow], Dict[str, float]]:
    """Reproduce Figure 7: return (rows, baseline IPC per suite)."""
    sweep_results = context.run_sweep(fig7_sweep(context))
    baseline_name = ooo_64().name
    baseline_results = {
        label: sweep_results[f"{baseline_name}|{label}"] for label in context.suites()
    }
    baseline_ipc = {label: result.mean_ipc for label, result in baseline_results.items()}
    rows: List[SpeedupRow] = []
    for machine in fig7_machines():
        speedups: Dict[str, float] = {}
        ipcs: Dict[str, float] = {}
        for label in context.suites():
            result = sweep_results[f"{machine.name}|{label}"]
            speedups[label] = result.speedup_over(baseline_results[label])
            ipcs[label] = result.mean_ipc
        rows.append(
            SpeedupRow(machine_name=machine.name, speedup_by_suite=speedups, ipc_by_suite=ipcs)
        )
    return rows, baseline_ipc


# ----------------------------------------------------------------------
# Figure 8a: ERT filter accuracy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FilterAccuracyPoint:
    """False-positive rate of one ERT configuration."""

    label: str
    storage_bytes: int
    false_positives_per_100m: Dict[str, float]


#: The hash-based ERT index widths swept by Figure 8a.
FIG8A_DEFAULT_HASH_BITS: Tuple[int, ...] = (6, 8, 10, 11, 12, 14, 16)


def fig8a_sweep(
    context: ExperimentContext, hash_bits: Sequence[int] = FIG8A_DEFAULT_HASH_BITS
) -> List[SweepCase]:
    """Figure 8a's sweep: the line-based ERT plus every hash width, both suites."""
    machines = [fmc_line()] + [
        fmc_hash(hash_bits=bits, name=f"FMC-Hash-{bits}b") for bits in hash_bits
    ]
    return [
        SweepCase(case_id=f"{machine.name}|{label}", machine=machine, suite_label=label)
        for machine in machines
        for label in context.suites()
    ]


def fig8a_filter_accuracy(
    context: ExperimentContext, hash_bits: Sequence[int] = FIG8A_DEFAULT_HASH_BITS
) -> List[FilterAccuracyPoint]:
    """Reproduce Figure 8a: ERT false positives versus filter size."""
    sweep_results = context.run_sweep(fig8a_sweep(context, hash_bits))
    points: List[FilterAccuracyPoint] = []
    line_machine = fmc_line()
    line_fp = {
        label: sweep_results[f"{line_machine.name}|{label}"].mean_counter_per_100m(
            "ert.false_positives"
        )
        for label in context.suites()
    }
    points.append(
        FilterAccuracyPoint(
            label="Line-based",
            # Load table + store table (the config method sizes one table).
            storage_bytes=2 * line_machine.elsq.ert.storage_bytes(line_machine.hierarchy.l1),
            false_positives_per_100m=line_fp,
        )
    )
    for bits in hash_bits:
        machine = fmc_hash(hash_bits=bits, name=f"FMC-Hash-{bits}b")
        false_positives = {
            label: sweep_results[f"{machine.name}|{label}"].mean_counter_per_100m(
                "ert.false_positives"
            )
            for label in context.suites()
        }
        points.append(
            FilterAccuracyPoint(
                label=f"{bits} bits",
                storage_bytes=2 * machine.elsq.ert.storage_bytes(),
                false_positives_per_100m=false_positives,
            )
        )
    return points


# ----------------------------------------------------------------------
# Figure 8b/c: sensitivity to the L1 geometry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheSensitivityPoint:
    """Relative performance of one (L1 size, associativity, ERT kind) point."""

    suite_label: str
    ert_label: str
    l1_kb: int
    associativity: int
    relative_performance: float


def fig8bc_sweep(
    context: ExperimentContext,
    l1_sizes_kb: Sequence[int] = (32, 64),
    associativities: Sequence[int] = (1, 2, 4, 8),
) -> List[SweepCase]:
    """Figure 8b/c's sweep: line vs hash ERT under every L1 geometry, both suites."""
    cases: List[SweepCase] = []
    for suite_label in context.suites():
        for size_kb in l1_sizes_kb:
            for associativity in associativities:
                hierarchy = context_hierarchy(size_kb, associativity)
                hash_bits = 10 if size_kb == 32 else 11
                for ert_label, base in (
                    ("CacheLine-based ERT", fmc_line()),
                    ("Hash-based ERT", fmc_hash(hash_bits=hash_bits)),
                ):
                    machine = base.with_hierarchy(
                        hierarchy, name=f"{base.name}-{size_kb}KB-{associativity}w"
                    )
                    cases.append(
                        SweepCase(
                            case_id=f"{suite_label}|{ert_label}|{size_kb}KB|{associativity}w",
                            machine=machine,
                            suite_label=suite_label,
                        )
                    )
    return cases


def fig8bc_cache_sensitivity(
    context: ExperimentContext,
    l1_sizes_kb: Sequence[int] = (32, 64),
    associativities: Sequence[int] = (1, 2, 4, 8),
) -> List[CacheSensitivityPoint]:
    """Reproduce Figure 8b/c: line- vs hash-based ERT under varying L1 geometry."""
    sweep_results = context.run_sweep(fig8bc_sweep(context, l1_sizes_kb, associativities))
    raw: List[Tuple[str, str, int, int, float]] = []
    for suite_label in context.suites():
        for size_kb in l1_sizes_kb:
            for associativity in associativities:
                for ert_label in ("CacheLine-based ERT", "Hash-based ERT"):
                    case_id = f"{suite_label}|{ert_label}|{size_kb}KB|{associativity}w"
                    ipc = sweep_results[case_id].mean_ipc
                    raw.append(
                        (suite_label, f"{ert_label} / {size_kb}KB", size_kb, associativity, ipc)
                    )
    points: List[CacheSensitivityPoint] = []
    for suite_label in context.suites():
        suite_rows = [row for row in raw if row[0] == suite_label]
        best = max(row[4] for row in suite_rows)
        for _, ert_label, size_kb, associativity, ipc in suite_rows:
            points.append(
                CacheSensitivityPoint(
                    suite_label=suite_label,
                    ert_label=ert_label,
                    l1_kb=size_kb,
                    associativity=associativity,
                    relative_performance=ipc / best if best else 0.0,
                )
            )
    return points


def context_hierarchy(l1_size_kb: int, associativity: int):
    """Build a memory hierarchy with the requested L1 geometry."""
    from repro.common.config import MemoryHierarchyConfig

    return MemoryHierarchyConfig().with_l1(l1_size_kb * 1024, associativity)


# ----------------------------------------------------------------------
# Figure 9: restricted disambiguation models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictedModelPoint:
    """Performance of one disambiguation model relative to full disambiguation."""

    model: DisambiguationModel
    relative_by_suite: Dict[str, float]


#: The disambiguation models of Figure 9, full disambiguation first.
FIG9_MODELS: Tuple[DisambiguationModel, ...] = (
    DisambiguationModel.FULL,
    DisambiguationModel.RESTRICTED_SAC,
    DisambiguationModel.RESTRICTED_LAC,
    DisambiguationModel.RESTRICTED_SAC_LAC,
)


def fig9_sweep(context: ExperimentContext) -> List[SweepCase]:
    """Figure 9's sweep: one machine per disambiguation model, both suites."""
    return [
        SweepCase(
            case_id=f"{model.value}|{label}",
            machine=fmc_elsq(disambiguation=model, name=f"FMC-Hash-{model.value}"),
            suite_label=label,
        )
        for model in FIG9_MODELS
        for label in context.suites()
    ]


def fig9_restricted_models(context: ExperimentContext) -> List[RestrictedModelPoint]:
    """Reproduce Figure 9: Full / RSAC / RLAC / RSAC+LAC relative performance."""
    sweep_results = context.run_sweep(fig9_sweep(context))
    per_model_ipc: Dict[DisambiguationModel, Dict[str, float]] = {
        model: {
            label: sweep_results[f"{model.value}|{label}"].mean_ipc
            for label in context.suites()
        }
        for model in FIG9_MODELS
    }
    reference = per_model_ipc[DisambiguationModel.FULL]
    return [
        RestrictedModelPoint(
            model=model,
            relative_by_suite={
                label: (ipc / reference[label] if reference[label] else 0.0)
                for label, ipc in per_model_ipc[model].items()
            },
        )
        for model in FIG9_MODELS
    ]


# ----------------------------------------------------------------------
# Figure 10: SVW re-execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SVWPoint:
    """One bar/point of Figure 10."""

    machine_label: str
    suite_label: str
    variant: str
    ssbf_bits: int
    relative_ipc: float
    reexecutions_per_100m: float


#: The two host machines Figure 10 studies, with their SVW variant builders.
_FIG10_HOSTS = (
    ("OoO-64", ooo_64, ooo_64_svw),
    ("FMC", fmc_hash, fmc_hash_svw),
)

#: The two SVW policies of Figure 10.
_FIG10_VARIANTS = (("CheckStores", True), ("Blind", False))


def fig10_sweep(
    context: ExperimentContext, ssbf_bits: Sequence[int] = (12, 10, 8)
) -> List[SweepCase]:
    """Figure 10's sweep: per host, the baseline plus every (SSBF size, policy)."""
    cases: List[SweepCase] = []
    for machine_label, baseline_factory, svw_factory in _FIG10_HOSTS:
        baseline = baseline_factory()
        for label in context.suites():
            cases.append(
                SweepCase(
                    case_id=f"{machine_label}|baseline|{label}",
                    machine=baseline,
                    suite_label=label,
                )
            )
        for bits in ssbf_bits:
            for variant, check_stores in _FIG10_VARIANTS:
                machine = svw_factory(bits, check_stores)
                for label in context.suites():
                    cases.append(
                        SweepCase(
                            case_id=f"{machine_label}|{bits}b|{variant}|{label}",
                            machine=machine,
                            suite_label=label,
                        )
                    )
    return cases


def fig10_svw_reexecution(
    context: ExperimentContext, ssbf_bits: Sequence[int] = (12, 10, 8)
) -> List[SVWPoint]:
    """Reproduce Figure 10 on both the OoO-64 core and the FMC."""
    sweep_results = context.run_sweep(fig10_sweep(context, ssbf_bits))
    points: List[SVWPoint] = []
    for machine_label, _baseline_factory, _svw_factory in _FIG10_HOSTS:
        baseline_results = {
            label: sweep_results[f"{machine_label}|baseline|{label}"]
            for label in context.suites()
        }
        for bits in ssbf_bits:
            for variant, _check_stores in _FIG10_VARIANTS:
                for suite_label in context.suites():
                    result = sweep_results[f"{machine_label}|{bits}b|{variant}|{suite_label}"]
                    points.append(
                        SVWPoint(
                            machine_label=machine_label,
                            suite_label=suite_label,
                            variant=variant,
                            ssbf_bits=bits,
                            relative_ipc=result.speedup_over(baseline_results[suite_label]),
                            reexecutions_per_100m=result.mean_counter_per_100m(
                                "svw.reexecutions"
                            ),
                        )
                    )
    return points


# ----------------------------------------------------------------------
# Figure 11: high-locality mode residency versus L2 size
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HighLocalityPoint:
    """Fraction of cycles with an inactive LL-LSQ for one L2 capacity."""

    l2_mb: int
    inactivity_by_suite: Dict[str, float]


def fig11_sweep(
    context: ExperimentContext, l2_sizes_mb: Sequence[int] = (1, 2, 4, 8)
) -> List[SweepCase]:
    """Figure 11's sweep: the FMC under every L2 capacity, both suites."""
    from repro.common.config import MemoryHierarchyConfig

    cases: List[SweepCase] = []
    for l2_mb in l2_sizes_mb:
        hierarchy = MemoryHierarchyConfig().with_l2_size(l2_mb * 1024 * 1024)
        machine = fmc_hash().with_hierarchy(hierarchy, name=f"FMC-Hash-{l2_mb}MB")
        for label in context.suites():
            cases.append(
                SweepCase(case_id=f"{l2_mb}MB|{label}", machine=machine, suite_label=label)
            )
    return cases


def fig11_high_locality_mode(
    context: ExperimentContext, l2_sizes_mb: Sequence[int] = (1, 2, 4, 8)
) -> List[HighLocalityPoint]:
    """Reproduce Figure 11: LL-LSQ inactivity as a function of L2 capacity."""
    sweep_results = context.run_sweep(fig11_sweep(context, l2_sizes_mb))
    points: List[HighLocalityPoint] = []
    for l2_mb in l2_sizes_mb:
        inactivity: Dict[str, float] = {}
        for label in context.suites():
            fraction = sweep_results[f"{l2_mb}MB|{label}"].mean_high_locality_fraction()
            inactivity[label] = fraction if fraction is not None else 0.0
        points.append(HighLocalityPoint(l2_mb=l2_mb, inactivity_by_suite=inactivity))
    return points


# ----------------------------------------------------------------------
# Table 2: structure access counts
# ----------------------------------------------------------------------

#: The Table 2 columns and the counters that feed them.
TABLE2_COLUMNS: Dict[str, str] = {
    "HL-LQ": "hl_lq.searches",
    "HL-SQ": "hl_sq.searches",
    "LL-LQ": "ll_lq.searches",
    "LL-SQ": "ll_sq.searches",
    "ERT": "ert.lookups",
    "SSBF": "ssbf.lookups",
    "RoundTrips": "network.round_trips",
    "Cache": "cache.accesses",
}


@dataclass(frozen=True)
class Table2Row:
    """One configuration row of Table 2 for one suite."""

    config_name: str
    suite_label: str
    accesses_millions: Dict[str, float]
    speedup: float


def table2_machines() -> List[MachineConfig]:
    """The six configurations of Table 2, the OoO-64 baseline first."""
    return [
        ooo_64(),
        ooo_64_svw(10, check_stores=False, name="OoO-64-SVW"),
        fmc_line(name="FMC-Line"),
        fmc_hash(name="FMC-Hash"),
        fmc_hash_svw(10, check_stores=False, name="FMC-Hash-SVW"),
        fmc_hash_rsac(name="FMC-Hash-RSAC"),
    ]


def table2_sweep(context: ExperimentContext) -> List[SweepCase]:
    """Table 2's sweep: every named configuration over both suites."""
    return [
        SweepCase(case_id=f"{machine.name}|{label}", machine=machine, suite_label=label)
        for machine in table2_machines()
        for label in context.suites()
    ]


def table2_access_counts(context: ExperimentContext) -> List[Table2Row]:
    """Reproduce Table 2 (access counts in millions per 100M instructions)."""
    sweep_results = context.run_sweep(table2_sweep(context))
    configurations = table2_machines()
    baseline = configurations[0]
    rows: List[Table2Row] = []
    for suite_label in context.suites():
        baseline_result = sweep_results[f"{baseline.name}|{suite_label}"]
        for machine in configurations:
            result = sweep_results[f"{machine.name}|{suite_label}"]
            accesses = {
                column: result.mean_counter_per_100m_millions(counter)
                for column, counter in TABLE2_COLUMNS.items()
            }
            rows.append(
                Table2Row(
                    config_name=machine.name,
                    suite_label=suite_label,
                    accesses_millions=accesses,
                    speedup=result.speedup_over(baseline_result),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Section 6: energy comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyComparison:
    """Headline energy ratios discussed in Section 6."""

    ert_vs_l1_read_ratio: float
    rsac_vs_svw_ert_accesses: Dict[str, float]
    rsac_vs_svw_round_trips: Dict[str, float]
    rsac_vs_svw_cache_accesses: Dict[str, float]


def sec6_sweep(context: ExperimentContext) -> List[SweepCase]:
    """Section 6's sweep: the RSAC and SVW machines over both suites."""
    return [
        SweepCase(case_id=f"{kind}|{label}", machine=machine, suite_label=label)
        for kind, machine in (("rsac", fmc_hash_rsac()), ("svw", fmc_hash_svw(10, check_stores=False)))
        for label in context.suites()
    ]


def sec6_energy_comparison(context: ExperimentContext) -> EnergyComparison:
    """Reproduce the Section 6 energy discussion (ERT vs L1, RSAC vs SVW)."""
    sweep_results = context.run_sweep(sec6_sweep(context))
    model = EnergyModel()
    ert_ratio = model.ert_vs_cache_read_ratio()
    ert_accesses: Dict[str, float] = {}
    round_trips: Dict[str, float] = {}
    cache_accesses: Dict[str, float] = {}
    for label in context.suites():
        rsac_result = sweep_results[f"rsac|{label}"]
        svw_result = sweep_results[f"svw|{label}"]

        def _ratio(counter: str) -> float:
            denominator = svw_result.mean_counter_per_100m(counter)
            if denominator == 0:
                return 0.0
            return rsac_result.mean_counter_per_100m(counter) / denominator

        ert_accesses[label] = _ratio("ert.lookups")
        round_trips[label] = _ratio("network.round_trips")
        cache_accesses[label] = _ratio("cache.accesses")
    return EnergyComparison(
        ert_vs_l1_read_ratio=ert_ratio,
        rsac_vs_svw_ert_accesses=ert_accesses,
        rsac_vs_svw_round_trips=round_trips,
        rsac_vs_svw_cache_accesses=cache_accesses,
    )


# ----------------------------------------------------------------------
# Family sweeps: sensitivity of the new workload families to the FMC knobs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySweepPoint:
    """IPC and epoch-pool pressure of one (family, knob, value) point."""

    family: str
    #: Which knob this point varies: ``"epochs"`` or ``"locality_threshold"``.
    knob: str
    value: int
    mean_ipc: float
    #: Cycles lost waiting for a free memory engine (epoch-pool saturation),
    #: per 100M instructions.
    migration_stall_cycles_per_100m: float


#: Epoch counts swept per family (the paper's machine has 16 engines).
FAMILY_SWEEP_EPOCH_COUNTS: Tuple[int, ...] = (2, 4, 8, 16)

#: Locality thresholds (decode-to-address-ready cycles) swept per family;
#: 30 is the paper's operating point (L2-hit latency).
FAMILY_SWEEP_LOCALITY_THRESHOLDS: Tuple[int, ...] = (10, 30, 90)


def family_sweep_suites(
    families: Optional[Sequence[str]] = None,
) -> Dict[str, WorkloadSuite]:
    """The family suites a sweep runs over, keyed by suite label."""
    from repro.workloads.families import FAMILY_NAMES, family_suite

    names = tuple(families) if families is not None else FAMILY_NAMES
    return {name: family_suite(name) for name in names}


def _family_sweep_plan(
    families: Sequence[str],
    epoch_counts: Sequence[int],
    locality_thresholds: Sequence[int],
) -> List[Tuple[str, str, int, SweepCase]]:
    """The sweep as structured rows: ``(family, knob, value, case)``.

    The case_id embeds the same triple for display/cache purposes, but the
    experiment reads the structured values -- never parses the string back.
    """
    plan: List[Tuple[str, str, int, SweepCase]] = []
    for family in families:
        for epochs in epoch_counts:
            case = SweepCase(
                case_id=f"{family}|epochs={epochs}",
                machine=fmc_elsq(num_epochs=epochs, name=f"FMC-Hash-{epochs}E"),
                suite_label=family,
            )
            plan.append((family, "epochs", epochs, case))
        for threshold in locality_thresholds:
            case = SweepCase(
                case_id=f"{family}|locality_threshold={threshold}",
                machine=fmc_elsq(
                    locality_threshold_cycles=threshold,
                    name=f"FMC-Hash-T{threshold}",
                ),
                suite_label=family,
            )
            plan.append((family, "locality_threshold", threshold, case))
    return plan


def family_sweep(
    context: ExperimentContext,
    families: Optional[Sequence[str]] = None,
    epoch_counts: Sequence[int] = FAMILY_SWEEP_EPOCH_COUNTS,
    locality_thresholds: Sequence[int] = FAMILY_SWEEP_LOCALITY_THRESHOLDS,
) -> List[FamilySweepPoint]:
    """Per-family IPC sensitivity to epoch count and locality threshold.

    Each workload family isolates one behaviour (dependent misses, streaming
    MLP, wrong-path churn, phase alternation), so the per-family curves show
    *which* behaviour each FMC knob trades against: pointer chasing barely
    uses the epoch pool while streaming saturates it; a low locality
    threshold migrates nearly everything, a high one starves the Memory
    Processor.
    """
    suites = family_sweep_suites(families)
    plan = _family_sweep_plan(tuple(suites), epoch_counts, locality_thresholds)
    sweep_results = context.run_sweep(
        [case for _, _, _, case in plan], extra_suites=suites
    )
    points: List[FamilySweepPoint] = []
    for family, knob, value, case in plan:
        result = sweep_results[case.case_id]
        points.append(
            FamilySweepPoint(
                family=family,
                knob=knob,
                value=value,
                mean_ipc=result.mean_ipc,
                migration_stall_cycles_per_100m=result.mean_counter_per_100m(
                    "fmc.migration_stall_cycles"
                ),
            )
        )
    return points


def policy_sweep_experiment(context: ExperimentContext) -> Dict[str, Any]:
    """Miss-ratio curves per replacement policy, per workload family.

    Thin registry adapter over :func:`repro.memory.mrc.policy_sweep` (the
    profiler lives next to the policies it measures).  Unlike the timing
    experiments this is an *offline replay* -- no machine models run, so
    the context's ``engine``/``policy`` overrides are irrelevant here: every
    registered policy, including the Belady OPT oracle, is profiled on
    every family trace at the campaign's length and seed.
    """
    from repro.memory.mrc import policy_sweep

    return policy_sweep(context)


# ----------------------------------------------------------------------
# The experiment registry: figures addressable by name
# ----------------------------------------------------------------------

#: Trace length of the default (quick) campaign; matches benchmarks/conftest.py.
QUICK_INSTRUCTIONS = 8_000

#: Seed of the default campaign (the paper's publication year).
DEFAULT_SEED = 2008


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper artifact addressable by name (CLI subcommand, wire request)."""

    name: str
    description: str
    run: Callable[[ExperimentContext], Any]
    #: Suites the experiment actually sweeps.  ``None`` means the campaign's
    #: two SPEC-like suites; experiments with a fixed scope of their own (the
    #: family sweep) name it here so JSON artifacts attribute the numbers to
    #: the right workloads.
    suites: Optional[Tuple[str, ...]] = None


#: Every reproducible artifact, keyed by the name the CLI and the service use.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "fig1",
            "Figure 1: execution locality of address calculations",
            fig1_execution_locality,
        ),
        ExperimentSpec("sec52", "Section 5.2: per-epoch LSQ sizing", sec52_epoch_sizing),
        ExperimentSpec(
            "fig7", "Figure 7: speed-up of the large-window LSQ schemes", fig7_speedups
        ),
        ExperimentSpec(
            "fig8a", "Figure 8a: ERT filter accuracy vs storage", fig8a_filter_accuracy
        ),
        ExperimentSpec(
            "fig8bc", "Figure 8b/c: sensitivity to the L1 geometry", fig8bc_cache_sensitivity
        ),
        ExperimentSpec(
            "fig9", "Figure 9: restricted disambiguation models", fig9_restricted_models
        ),
        ExperimentSpec("fig10", "Figure 10: SVW re-execution", fig10_svw_reexecution),
        ExperimentSpec(
            "fig11", "Figure 11: high-locality mode vs L2 size", fig11_high_locality_mode
        ),
        ExperimentSpec("table2", "Table 2: structure access counts", table2_access_counts),
        ExperimentSpec("sec6", "Section 6: energy comparison", sec6_energy_comparison),
        ExperimentSpec(
            "family-sweep",
            "Sensitivity: workload families vs epoch count / locality threshold",
            family_sweep,
            suites=("pointer_chase", "streaming", "branchy", "phased"),
        ),
        ExperimentSpec(
            "policy-sweep",
            "Miss-ratio curves: replacement policies vs cache size per workload family",
            policy_sweep_experiment,
            suites=("pointer_chase", "streaming", "branchy", "phased"),
        ),
    )
}


def experiment_by_name(name: str) -> ExperimentSpec:
    """Resolve a figure/table name to its spec, or raise ConfigurationError."""
    from repro.common.errors import ConfigurationError

    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(f"unknown experiment {name!r} (known: {known})") from None


def campaign_context(
    *,
    full: bool = False,
    instructions: Optional[int] = None,
    seed: Optional[int] = DEFAULT_SEED,
    runner: Optional[ExperimentRunner] = None,
    engine: Optional[str] = None,
    policy: Optional[str] = None,
) -> ExperimentContext:
    """Build the campaign context the CLI flags / a wire request describe.

    This is the single definition of the campaign defaults: the quick
    two-workload suites at :data:`QUICK_INSTRUCTIONS` unless ``full``, the
    paper-year seed, and the orchestration runner (an inline
    ``ExperimentRunner()`` when none is given).  The CLI and the service
    both build their contexts here, which is what makes a remote submission
    bit-identical to a local ``python -m repro`` run.

    ``policy`` overrides the replacement policy of *both* cache levels of
    every machine the campaign simulates (timing policies only: OPT needs
    a future-reuse oracle and exists only in the offline MRC profiler).
    """
    from repro.workloads.suite import quick_fp_suite, quick_int_suite

    if full:
        fp_suite, int_suite = spec_fp_suite(), spec_int_suite()
        default_instructions = DEFAULT_INSTRUCTIONS_PER_WORKLOAD
    else:
        fp_suite, int_suite = quick_fp_suite(), quick_int_suite()
        default_instructions = QUICK_INSTRUCTIONS
    if engine is not None:
        from repro.sim.engine import engine_by_name

        engine_by_name(engine)  # fail fast on unknown engine names
    if policy is not None:
        from repro.memory.replacement import validate_policy_name

        # Fail fast, and keep the OPT oracle out of timing campaigns.
        validate_policy_name(policy, timing_only=True)
    return ExperimentContext(
        fp_suite=fp_suite,
        int_suite=int_suite,
        instructions_per_workload=(
            instructions if instructions is not None else default_instructions
        ),
        seed=seed,
        runner=runner if runner is not None else ExperimentRunner(),
        engine=engine,
        policy=policy,
    )
