"""Experiment harness: one function per table / figure of the paper.

Every experiment of the evaluation section is reproduced by a function in
this module.  Each function takes an :class:`ExperimentContext` (which owns
the workload suites, the trace length, the seed and the runner every
simulation goes through) and returns a :class:`Plan`, running nothing:

* the plan's ``cases`` -- :class:`~repro.exp.runner.SweepCase` records,
  each one machine over one suite -- are everything the figure simulates;
* its ``suites`` name any suites beyond the campaign's two; and
* its ``reduce`` turns ``{case: SuiteResult}`` into the plain result object
  the CLI, the service and the benchmark scripts report, in the same
  rows/series as the paper.

:meth:`ExperimentContext.run_plans` runs the cases of any number of plans
as one batch of the context's :class:`~repro.exp.runner.ExperimentRunner`
-- an inline one when the caller attaches none -- and then reduces each
plan; :meth:`ExperimentContext.run` does the same for one plan.  Because a
figure's simulation work is fully described by its cases, the runner can
deduplicate across figures, cache, and fan the whole invocation out over a
process pool; serial and parallel runners produce bit-identical numbers.

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
| :func:`policy_sweep_experiment`   | (beyond-paper) |
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import DisambiguationModel
from repro.common.errors import ConfigurationError
from repro.energy.accounting import EnergyModel
from repro.exp.runner import ExperimentRunner, SweepCase
from repro.sim import tables
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

#: What a plan's reducer receives: one suite aggregate per declared case.
CaseResults = Mapping[SweepCase, SuiteResult]


@dataclass(frozen=True)
class Plan:
    """What one experiment simulates, and how its results become the figure.

    A plan runs nothing itself; :meth:`ExperimentContext.run_plans` runs
    the cases of several plans as one batch and then calls each ``reduce``
    with the results of that plan's cases, keyed by the cases it declared.
    """

    #: Every machine/suite pair the experiment simulates.
    cases: Tuple[SweepCase, ...]
    #: Turns ``{case: SuiteResult}`` into the experiment's result.
    reduce: Callable[[CaseResults], Any]
    #: Suites beyond the campaign's two, keyed by the labels the cases use.
    suites: Mapping[str, WorkloadSuite] = field(default_factory=dict)


@dataclass
class ExperimentContext:
    """Shared state of one experiment campaign.

    The context pins the two suites, the trace length and the RNG seed, and
    routes every simulation through its
    :class:`~repro.exp.runner.ExperimentRunner` (result cache, process
    pool).  Without one it holds an inline ``ExperimentRunner()``; either
    way every machine configuration replays exactly the same instruction
    streams, because a trace is a pure function of its workload, length
    and seed.  Its one machine override is the replacement ``policy``; how
    a trace is driven is no campaign knob, since every simulation runs the
    one engine of :mod:`repro.sim.engine`.
    """

    fp_suite: WorkloadSuite = field(default_factory=spec_fp_suite)
    int_suite: WorkloadSuite = field(default_factory=spec_int_suite)
    instructions_per_workload: int = DEFAULT_INSTRUCTIONS_PER_WORKLOAD
    seed: Optional[int] = None
    runner: ExperimentRunner = field(default_factory=ExperimentRunner)
    #: Replacement-policy override applied to both cache levels of every
    #: machine the campaign runs (``None`` keeps each machine's own
    #: configuration, LRU unless a hierarchy says otherwise).
    policy: Optional[str] = None

    def _apply_policy(self, machine: MachineConfig) -> MachineConfig:
        """Rebind ``machine`` to the campaign's replacement-policy override."""
        if self.policy is None or (
            machine.hierarchy.l1.replacement_policy == self.policy
            and machine.hierarchy.l2.replacement_policy == self.policy
        ):
            return machine
        return machine.with_policy(self.policy)

    def suites(self) -> Dict[str, WorkloadSuite]:
        """The two suites keyed by their paper labels."""
        return {"SPEC FP": self.fp_suite, "SPEC INT": self.int_suite}

    def run_plans(self, plans: Mapping[str, Plan]) -> Dict[str, Any]:
        """Run every plan's cases as one runner batch, then reduce each plan.

        Returns ``{name: result}`` in the order of ``plans``.  Equal cases
        from different plans run once, and so does any job two cases share.
        The campaign's policy override is applied to every case before it
        runs, but each reducer looks its results up by the cases
        it declared.  Plan suites merge per call: the context keeps its two.
        """
        suites = self.suites()
        for plan in plans.values():
            for label, suite in plan.suites.items():
                if suites.setdefault(label, suite) != suite:
                    raise ConfigurationError(f"plans disagree on the suite labelled {label!r}")
        bound = {
            case: SweepCase(self._apply_policy(case.machine), case.suite_label)
            for plan in plans.values()
            for case in plan.cases
        }
        results = self.runner.run_cases(
            bound.values(), suites, self.instructions_per_workload, seed=self.seed
        )
        return {
            name: plan.reduce({case: results[bound[case]] for case in plan.cases})
            for name, plan in plans.items()
        }

    def run(self, plan: Plan) -> Any:
        """Run one plan and return its reduced result."""
        return self.run_plans({"plan": plan})["plan"]


def quick_context(instructions: int = 6_000, seed: int = 7) -> ExperimentContext:
    """A reduced campaign (two workloads per suite, short traces) for tests."""
    from repro.workloads.suite import quick_fp_suite, quick_int_suite

    return ExperimentContext(
        fp_suite=quick_fp_suite(),
        int_suite=quick_int_suite(),
        instructions_per_workload=instructions,
        seed=seed,
    )


def _grid(machines: Iterable[MachineConfig], labels: Sequence[str]) -> Tuple[SweepCase, ...]:
    """Every machine over every suite label, machine-major."""
    return tuple(SweepCase(machine, label) for machine in machines for label in labels)


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


def fig1_execution_locality(context: ExperimentContext) -> Plan:
    """Figure 1: the large-window FMC machine over both suites."""
    machine = fmc_hash()
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> Dict[str, LocalityDistribution]:
        return {
            label: _locality_distribution(label, results[SweepCase(machine, label)])
            for label in labels
        }

    return Plan(_grid([machine], labels), reduce)


def _locality_distribution(label: str, suite_result: SuiteResult) -> LocalityDistribution:
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
    return LocalityDistribution(
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


def sec52_epoch_sizing(
    context: ExperimentContext,
    sizings: Sequence[Tuple[int, int]] = SEC52_DEFAULT_SIZINGS,
) -> Plan:
    """The Section 5.2 sizing study: one sizing per case, SPEC-FP-like suite.

    The last sizing in ``sizings`` is treated as the "unlimited" reference
    (the paper sizes against an unlimited LSQ and accepts ~1% slowdown for
    64 loads / 32 stores per epoch).
    """
    cases = tuple(
        SweepCase(
            fmc_elsq(
                epoch_load_entries=loads,
                epoch_store_entries=stores,
                name=f"FMC-Hash-{loads}L{stores}S",
            ),
            "SPEC FP",
        )
        for loads, stores in sizings
    )

    def reduce(results: CaseResults) -> List[EpochSizingPoint]:
        ipcs = [results[case].mean_ipc for case in cases]
        reference_ipc = ipcs[-1]
        return [
            EpochSizingPoint(
                load_entries=loads,
                store_entries=stores,
                mean_ipc=ipc,
                slowdown_vs_unlimited=1.0 - (ipc / reference_ipc if reference_ipc else 0.0),
            )
            for (loads, stores), ipc in zip(sizings, ipcs)
        ]

    return Plan(cases, reduce)


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


def fig7_speedups(context: ExperimentContext) -> Plan:
    """Figure 7: reduces to (rows, baseline IPC per suite)."""
    baseline = ooo_64()
    machines = fig7_machines()
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> Tuple[List[SpeedupRow], Dict[str, float]]:
        baseline_results = {label: results[SweepCase(baseline, label)] for label in labels}
        rows: List[SpeedupRow] = []
        for machine in machines:
            by_suite = {label: results[SweepCase(machine, label)] for label in labels}
            rows.append(
                SpeedupRow(
                    machine_name=machine.name,
                    speedup_by_suite={
                        label: result.speedup_over(baseline_results[label])
                        for label, result in by_suite.items()
                    },
                    ipc_by_suite={label: result.mean_ipc for label, result in by_suite.items()},
                )
            )
        return rows, {label: result.mean_ipc for label, result in baseline_results.items()}

    return Plan(_grid([baseline, *machines], labels), reduce)


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


def fig8a_filter_accuracy(
    context: ExperimentContext, hash_bits: Sequence[int] = FIG8A_DEFAULT_HASH_BITS
) -> Plan:
    """Figure 8a: ERT false positives versus filter size, both suites."""
    line = fmc_line()
    hashed = [(bits, fmc_hash(hash_bits=bits, name=f"FMC-Hash-{bits}b")) for bits in hash_bits]
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> List[FilterAccuracyPoint]:
        def false_positives(machine: MachineConfig) -> Dict[str, float]:
            return {
                label: results[SweepCase(machine, label)].mean_counter_per_100m(
                    "ert.false_positives"
                )
                for label in labels
            }

        points = [
            FilterAccuracyPoint(
                label="Line-based",
                # Load table + store table (the config method sizes one table).
                storage_bytes=2 * line.elsq.ert.storage_bytes(line.hierarchy.l1),
                false_positives_per_100m=false_positives(line),
            )
        ]
        for bits, machine in hashed:
            points.append(
                FilterAccuracyPoint(
                    label=f"{bits} bits",
                    storage_bytes=2 * machine.elsq.ert.storage_bytes(),
                    false_positives_per_100m=false_positives(machine),
                )
            )
        return points

    return Plan(_grid([line] + [machine for _, machine in hashed], labels), reduce)


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


def fig8bc_cache_sensitivity(
    context: ExperimentContext,
    l1_sizes_kb: Sequence[int] = (32, 64),
    associativities: Sequence[int] = (1, 2, 4, 8),
) -> Plan:
    """Figure 8b/c: line- vs hash-based ERT under every L1 geometry, both suites."""
    labels = tuple(context.suites())
    #: One row per case: (suite label, ERT label, L1 KB, associativity, case).
    grid: List[Tuple[str, str, int, int, SweepCase]] = []
    for suite_label in labels:
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
                    grid.append(
                        (
                            suite_label,
                            f"{ert_label} / {size_kb}KB",
                            size_kb,
                            associativity,
                            SweepCase(machine, suite_label),
                        )
                    )

    def reduce(results: CaseResults) -> List[CacheSensitivityPoint]:
        points: List[CacheSensitivityPoint] = []
        for suite_label in labels:
            suite_rows = [row for row in grid if row[0] == suite_label]
            best = max(results[case].mean_ipc for *_, case in suite_rows)
            for _, ert_label, size_kb, associativity, case in suite_rows:
                points.append(
                    CacheSensitivityPoint(
                        suite_label=suite_label,
                        ert_label=ert_label,
                        l1_kb=size_kb,
                        associativity=associativity,
                        relative_performance=results[case].mean_ipc / best if best else 0.0,
                    )
                )
        return points

    return Plan(tuple(case for *_, case in grid), reduce)


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


def fig9_restricted_models(context: ExperimentContext) -> Plan:
    """Figure 9: Full / RSAC / RLAC / RSAC+LAC relative performance."""
    machines = {
        model: fmc_elsq(disambiguation=model, name=f"FMC-Hash-{model.value}")
        for model in FIG9_MODELS
    }
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> List[RestrictedModelPoint]:
        per_model_ipc = {
            model: {label: results[SweepCase(machine, label)].mean_ipc for label in labels}
            for model, machine in machines.items()
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

    return Plan(_grid(machines.values(), labels), reduce)


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


def fig10_svw_reexecution(
    context: ExperimentContext, ssbf_bits: Sequence[int] = (12, 10, 8)
) -> Plan:
    """Figure 10 on both the OoO-64 core and the FMC: per host, the baseline
    plus every (SSBF size, policy)."""
    labels = tuple(context.suites())
    hosts = [
        (
            machine_label,
            baseline_factory(),
            [
                (bits, variant, svw_factory(bits, check_stores))
                for bits in ssbf_bits
                for variant, check_stores in _FIG10_VARIANTS
            ],
        )
        for machine_label, baseline_factory, svw_factory in _FIG10_HOSTS
    ]

    def reduce(results: CaseResults) -> List[SVWPoint]:
        points: List[SVWPoint] = []
        for machine_label, baseline, variants in hosts:
            for bits, variant, machine in variants:
                for label in labels:
                    result = results[SweepCase(machine, label)]
                    points.append(
                        SVWPoint(
                            machine_label=machine_label,
                            suite_label=label,
                            variant=variant,
                            ssbf_bits=bits,
                            relative_ipc=result.speedup_over(results[SweepCase(baseline, label)]),
                            reexecutions_per_100m=result.mean_counter_per_100m(
                                "svw.reexecutions"
                            ),
                        )
                    )
        return points

    machines: List[MachineConfig] = []
    for _, baseline, variants in hosts:
        machines += [baseline] + [machine for _, _, machine in variants]
    return Plan(_grid(machines, labels), reduce)


# ----------------------------------------------------------------------
# Figure 11: high-locality mode residency versus L2 size
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HighLocalityPoint:
    """Fraction of cycles with an inactive LL-LSQ for one L2 capacity."""

    l2_mb: int
    inactivity_by_suite: Dict[str, float]


def fig11_high_locality_mode(
    context: ExperimentContext, l2_sizes_mb: Sequence[int] = (1, 2, 4, 8)
) -> Plan:
    """Figure 11: LL-LSQ inactivity of the FMC under every L2 capacity."""
    from repro.common.config import MemoryHierarchyConfig

    machines = [
        (
            l2_mb,
            fmc_hash().with_hierarchy(
                MemoryHierarchyConfig().with_l2_size(l2_mb * 1024 * 1024),
                name=f"FMC-Hash-{l2_mb}MB",
            ),
        )
        for l2_mb in l2_sizes_mb
    ]
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> List[HighLocalityPoint]:
        points: List[HighLocalityPoint] = []
        for l2_mb, machine in machines:
            inactivity: Dict[str, float] = {}
            for label in labels:
                fraction = results[SweepCase(machine, label)].mean_high_locality_fraction()
                inactivity[label] = fraction if fraction is not None else 0.0
            points.append(HighLocalityPoint(l2_mb=l2_mb, inactivity_by_suite=inactivity))
        return points

    return Plan(_grid([machine for _, machine in machines], labels), reduce)


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


def table2_access_counts(context: ExperimentContext) -> Plan:
    """Table 2 (access counts in millions per 100M instructions)."""
    machines = table2_machines()
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> List[Table2Row]:
        rows: List[Table2Row] = []
        for label in labels:
            baseline_result = results[SweepCase(machines[0], label)]
            for machine in machines:
                result = results[SweepCase(machine, label)]
                rows.append(
                    Table2Row(
                        config_name=machine.name,
                        suite_label=label,
                        accesses_millions={
                            column: result.mean_counter_per_100m_millions(counter)
                            for column, counter in TABLE2_COLUMNS.items()
                        },
                        speedup=result.speedup_over(baseline_result),
                    )
                )
        return rows

    return Plan(_grid(machines, labels), reduce)


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


def sec6_energy_comparison(context: ExperimentContext) -> Plan:
    """The Section 6 energy discussion (ERT vs L1, RSAC vs SVW), both suites."""
    rsac = fmc_hash_rsac()
    svw = fmc_hash_svw(10, check_stores=False)
    labels = tuple(context.suites())

    def reduce(results: CaseResults) -> EnergyComparison:
        def ratios(counter: str) -> Dict[str, float]:
            by_suite: Dict[str, float] = {}
            for label in labels:
                denominator = results[SweepCase(svw, label)].mean_counter_per_100m(counter)
                numerator = results[SweepCase(rsac, label)].mean_counter_per_100m(counter)
                by_suite[label] = numerator / denominator if denominator != 0 else 0.0
            return by_suite

        return EnergyComparison(
            ert_vs_l1_read_ratio=EnergyModel().ert_vs_cache_read_ratio(),
            rsac_vs_svw_ert_accesses=ratios("ert.lookups"),
            rsac_vs_svw_round_trips=ratios("network.round_trips"),
            rsac_vs_svw_cache_accesses=ratios("cache.accesses"),
        )

    return Plan(_grid([rsac, svw], labels), reduce)


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


def family_sweep(
    context: ExperimentContext,
    families: Optional[Sequence[str]] = None,
    epoch_counts: Sequence[int] = FAMILY_SWEEP_EPOCH_COUNTS,
    locality_thresholds: Sequence[int] = FAMILY_SWEEP_LOCALITY_THRESHOLDS,
) -> Plan:
    """Per-family IPC sensitivity to epoch count and locality threshold.

    Each workload family isolates one behaviour (dependent misses, streaming
    MLP, wrong-path churn, phase alternation), so the per-family curves show
    *which* behaviour each FMC knob trades against: pointer chasing barely
    uses the epoch pool while streaming saturates it; a low locality
    threshold migrates nearly everything, a high one starves the Memory
    Processor.  The plan carries the family suites (all four by default).
    """
    from repro.workloads.families import FAMILY_NAMES, family_suite

    names = FAMILY_NAMES if families is None else tuple(families)
    suites = {name: family_suite(name) for name in names}
    knobs = [
        ("epochs", epochs, fmc_elsq(num_epochs=epochs, name=f"FMC-Hash-{epochs}E"))
        for epochs in epoch_counts
    ] + [
        (
            "locality_threshold",
            threshold,
            fmc_elsq(locality_threshold_cycles=threshold, name=f"FMC-Hash-T{threshold}"),
        )
        for threshold in locality_thresholds
    ]

    def reduce(results: CaseResults) -> List[FamilySweepPoint]:
        points: List[FamilySweepPoint] = []
        for family in suites:
            for knob, value, machine in knobs:
                result = results[SweepCase(machine, family)]
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

    cases = tuple(
        SweepCase(machine, family) for family in suites for _, _, machine in knobs
    )
    return Plan(cases, reduce, suites)


def policy_sweep_experiment(context: ExperimentContext) -> Plan:
    """Miss-ratio curves per replacement policy, per workload family.

    A plan with no cases whose reduction runs
    :func:`repro.memory.mrc.policy_sweep` (the profiler lives next to the
    policies it measures).  Unlike the timing experiments this is an
    *offline replay* -- no machine models run, so the context's
    ``policy`` override is irrelevant here: every registered
    policy, including the Belady OPT oracle, is profiled on every family
    trace at the campaign's length and seed.  The plan names the four
    family suites it profiles.
    """
    from repro.memory.mrc import policy_sweep
    from repro.workloads.families import FAMILY_NAMES, family_suite

    return Plan(
        (),
        lambda _results: policy_sweep(context),
        {name: family_suite(name) for name in FAMILY_NAMES},
    )


# ----------------------------------------------------------------------
# The experiment registry: figures addressable by name
# ----------------------------------------------------------------------

#: Trace length of the default (quick) campaign.
QUICK_INSTRUCTIONS = 8_000

#: Seed of the default campaign (the paper's publication year).
DEFAULT_SEED = 2008


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper artifact addressable by name (CLI subcommand, wire request)."""

    name: str
    description: str
    #: The figure function: what the experiment simulates and how it reduces.
    plan: Callable[[ExperimentContext], Plan]
    #: Prints the reduced result in the paper's layout.
    render: Callable[[Any], str]


#: Every reproducible artifact, keyed by the name the CLI and the service use.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "fig1",
            "Figure 1: execution locality of address calculations",
            fig1_execution_locality,
            tables.format_fig1,
        ),
        ExperimentSpec(
            "sec52", "Section 5.2: per-epoch LSQ sizing", sec52_epoch_sizing, tables.format_sec52
        ),
        ExperimentSpec(
            "fig7",
            "Figure 7: speed-up of the large-window LSQ schemes",
            fig7_speedups,
            tables.format_fig7,
        ),
        ExperimentSpec(
            "fig8a",
            "Figure 8a: ERT filter accuracy vs storage",
            fig8a_filter_accuracy,
            tables.format_fig8a,
        ),
        ExperimentSpec(
            "fig8bc",
            "Figure 8b/c: sensitivity to the L1 geometry",
            fig8bc_cache_sensitivity,
            tables.format_fig8bc,
        ),
        ExperimentSpec(
            "fig9",
            "Figure 9: restricted disambiguation models",
            fig9_restricted_models,
            tables.format_fig9,
        ),
        ExperimentSpec(
            "fig10", "Figure 10: SVW re-execution", fig10_svw_reexecution, tables.format_fig10
        ),
        ExperimentSpec(
            "fig11",
            "Figure 11: high-locality mode vs L2 size",
            fig11_high_locality_mode,
            tables.format_fig11,
        ),
        ExperimentSpec(
            "table2",
            "Table 2: structure access counts",
            table2_access_counts,
            tables.format_table2,
        ),
        ExperimentSpec(
            "sec6", "Section 6: energy comparison", sec6_energy_comparison, tables.format_sec6
        ),
        ExperimentSpec(
            "family-sweep",
            "Sensitivity: workload families vs epoch count / locality threshold",
            family_sweep,
            tables.format_family_sweep,
        ),
        ExperimentSpec(
            "policy-sweep",
            "Miss-ratio curves: replacement policies vs cache size per workload family",
            policy_sweep_experiment,
            tables.format_policy_sweep,
        ),
    )
}


def experiment_by_name(name: str) -> ExperimentSpec:
    """Resolve a figure/table name to its spec, or raise ConfigurationError."""
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
    policy: Optional[str] = None,
) -> ExperimentContext:
    """Build the campaign context the CLI flags / a wire request describe.

    This is the single definition of the campaign defaults: the quick
    two-workload suites at :data:`QUICK_INSTRUCTIONS` unless ``full``, the
    paper-year seed, and the orchestration runner (an inline
    ``ExperimentRunner()`` when none is given).  The CLI, the service and
    the benchmark harness all build their contexts here, which is what makes
    a remote submission bit-identical to a local ``python -m repro`` run.

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
        policy=policy,
    )
