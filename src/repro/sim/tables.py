"""Plain-text formatters that print results in the paper's layout.

Each experiment in :data:`repro.sim.experiments.EXPERIMENTS` renders its
reduced result through one of these (its spec's ``render``), so the CLI
and the benchmark scripts print the same rows and series the paper
reports.  The result types are imported for typing only: the experiment
module imports this one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.sim.experiments import (
        CacheSensitivityPoint,
        EnergyComparison,
        EpochSizingPoint,
        FamilySweepPoint,
        FilterAccuracyPoint,
        HighLocalityPoint,
        LocalityDistribution,
        RestrictedModelPoint,
        SpeedupRow,
        SVWPoint,
        Table2Row,
    )


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))


def format_fig1(distributions: Dict[str, LocalityDistribution]) -> str:
    """Render Figure 1's coverage summary (one block per suite)."""
    lines: List[str] = ["Figure 1: decode -> address-calculation distance"]
    for label, distribution in distributions.items():
        lines.append(f"  {label}:")
        lines.append(
            "    loads : {:.1%} within first bin, p95 <= {} cycles, p99 <= {} cycles".format(
                distribution.load_fraction_within_bin,
                distribution.load_p95,
                distribution.load_p99,
            )
        )
        lines.append(
            "    stores: {:.1%} within first bin, p95 <= {} cycles, p99 <= {} cycles".format(
                distribution.store_fraction_within_bin,
                distribution.store_p95,
                distribution.store_p99,
            )
        )
    return "\n".join(lines)


def format_sec52(points: Iterable[EpochSizingPoint]) -> str:
    """Render the Section 5.2 sizing table."""
    lines = ["Section 5.2: per-epoch LSQ sizing (SPEC FP)"]
    lines.append("  LQ entries  SQ entries  mean IPC  slowdown vs unlimited")
    for point in points:
        lines.append(
            f"  {point.load_entries:<10}  {point.store_entries:<10}  "
            f"{point.mean_ipc:<8.3f}  {point.slowdown_vs_unlimited:6.2%}"
        )
    return "\n".join(lines)


def format_fig7(result: Tuple[Iterable[SpeedupRow], Dict[str, float]]) -> str:
    """Render Figure 7's speed-up bars from its (rows, baseline IPC) result."""
    rows, baseline_ipc = result
    lines = ["Figure 7: speed-up over the 64-entry ROB baseline"]
    lines.append(
        "  baseline IPC: "
        + ", ".join(f"{label} {ipc:.2f}" for label, ipc in baseline_ipc.items())
    )
    for row in rows:
        speedups = ", ".join(
            f"{label} {value:.2f}x" for label, value in row.speedup_by_suite.items()
        )
        lines.append(f"  {row.machine_name:<24} {speedups}")
    return "\n".join(lines)


def format_fig8a(points: Iterable[FilterAccuracyPoint]) -> str:
    """Render Figure 8a's false-positive counts."""
    lines = ["Figure 8a: ERT false positives per 100M instructions"]
    for point in points:
        rates = ", ".join(
            f"{label} {value:,.0f}" for label, value in point.false_positives_per_100m.items()
        )
        lines.append(f"  {point.label:<12} ({point.storage_bytes} bytes/table-pair): {rates}")
    return "\n".join(lines)


def format_fig8bc(points: Iterable[CacheSensitivityPoint]) -> str:
    """Render Figure 8b/c's relative-performance grid."""
    lines = ["Figure 8b/c: relative performance vs L1 geometry"]
    by_suite: Dict[str, List[CacheSensitivityPoint]] = {}
    for point in points:
        by_suite.setdefault(point.suite_label, []).append(point)
    for suite_label, suite_points in by_suite.items():
        lines.append(f"  {suite_label}:")
        for point in suite_points:
            lines.append(
                f"    {point.ert_label:<28} {point.associativity}-way: "
                f"{point.relative_performance:.3f}"
            )
    return "\n".join(lines)


def format_fig9(points: Iterable[RestrictedModelPoint]) -> str:
    """Render Figure 9's restricted-disambiguation comparison."""
    lines = ["Figure 9: restricted disambiguation models (relative to Full)"]
    for point in points:
        values = ", ".join(
            f"{label} {value:.3f}" for label, value in point.relative_by_suite.items()
        )
        lines.append(f"  {point.model.value:<10} {values}")
    return "\n".join(lines)


def format_fig10(points: Iterable[SVWPoint]) -> str:
    """Render Figure 10's SVW re-execution study."""
    lines = ["Figure 10: SVW re-execution (relative IPC / re-executions per 100M)"]
    for point in points:
        lines.append(
            f"  {point.machine_label:<7} {point.suite_label:<9} {point.variant:<12} "
            f"{point.ssbf_bits:>2} bits: IPC {point.relative_ipc:.3f}, "
            f"re-exec {point.reexecutions_per_100m:,.0f}"
        )
    return "\n".join(lines)


def format_fig11(points: Iterable[HighLocalityPoint]) -> str:
    """Render Figure 11's high-locality-mode residency."""
    lines = ["Figure 11: LL-LSQ inactivity (high-locality mode) vs L2 size"]
    for point in points:
        values = ", ".join(
            f"{label} {value:.1%}" for label, value in point.inactivity_by_suite.items()
        )
        lines.append(f"  L2 {point.l2_mb} MB: {values}")
    return "\n".join(lines)


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table 2 (accesses in millions per 100M instructions)."""
    columns = list(rows[0].accesses_millions) if rows else []
    header = ["Configuration", "Suite"] + columns + ["Speed-Up"]
    widths = [16, 9] + [10] * len(columns) + [8]
    lines = ["Table 2: LSQ component accesses (millions per 100M instructions)"]
    lines.append("  " + _format_row(header, widths))
    for row in rows:
        cells = [row.config_name, row.suite_label]
        cells += [f"{row.accesses_millions[column]:.3f}" for column in columns]
        cells += [f"{row.speedup:.3f}"]
        lines.append("  " + _format_row(cells, widths))
    return "\n".join(lines)


def format_sec6(comparison: EnergyComparison) -> str:
    """Render the Section 6 energy comparison."""
    lines = ["Section 6: energy comparison"]
    lines.append(
        f"  ERT read energy / L1 read energy: {comparison.ert_vs_l1_read_ratio:.3f}"
    )
    for label in comparison.rsac_vs_svw_ert_accesses:
        lines.append(
            "  {}: RSAC/SVW ERT accesses {:.2f}, round trips {:.2f}, cache accesses {:.2f}".format(
                label,
                comparison.rsac_vs_svw_ert_accesses[label],
                comparison.rsac_vs_svw_round_trips[label],
                comparison.rsac_vs_svw_cache_accesses[label],
            )
        )
    return "\n".join(lines)


def format_family_sweep(points: Iterable[FamilySweepPoint]) -> str:
    """Render the family sensitivity sweep, one block per family."""
    lines = ["Family sweep: IPC vs epoch count / locality threshold"]
    by_family: Dict[str, List[FamilySweepPoint]] = {}
    for point in points:
        by_family.setdefault(point.family, []).append(point)
    for family, family_points in by_family.items():
        lines.append(f"  {family}:")
        for knob in ("epochs", "locality_threshold"):
            series = [point for point in family_points if point.knob == knob]
            if not series:
                continue
            lines.append(f"    {knob}:")
            for point in series:
                lines.append(
                    f"      {point.value:>5}  IPC {point.mean_ipc:6.3f}  "
                    f"migration stalls/100M {point.migration_stall_cycles_per_100m:14.0f}"
                )
    return "\n".join(lines)


def format_policy_sweep(result: Dict[str, Any]) -> str:
    """Render the miss-ratio curves, one table per workload family."""
    sizes = result["sizes_bytes"]
    header = "  ".join(f"{size // 1024:>4}K" for size in sizes)
    lines = ["policy-sweep: miss ratio vs cache size, per workload family"]
    for family, block in result["families"].items():
        lines.append("")
        lines.append(f"{family}  (members: {', '.join(block['members'])})")
        lines.append(f"  {'policy':<8} {header}")
        for policy, curve in block["curves"].items():
            cells = "  ".join(f"{ratio:5.3f}" for ratio in curve)
            lines.append(f"  {policy:<8} {cells}")
    return "\n".join(lines)
