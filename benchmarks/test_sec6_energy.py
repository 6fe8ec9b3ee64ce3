"""Section 6: energy comparison (ERT vs L1 reads, RSAC vs SVW).

Paper expectation: one ERT read costs about 2% of an L1 read; restricted SAC
performs no more ERT accesses, round trips or cache accesses than the SVW
configuration, which is the core of the paper's final recommendation.
"""

from __future__ import annotations

from conftest import run_once

from repro.sim.experiments import EXPERIMENTS, sec6_energy_comparison


def test_sec6_energy_comparison(benchmark, context):
    comparison = run_once(benchmark, sec6_energy_comparison, context)
    print()
    print(EXPERIMENTS["sec6"].render(comparison))

    # The paper's headline ratio: the ERT read is roughly 2% of an L1 read.
    assert 0.005 < comparison.ert_vs_l1_read_ratio < 0.05

    for label in comparison.rsac_vs_svw_ert_accesses:
        # RSAC never increases cache pressure relative to SVW, and it avoids
        # the re-execution cache accesses, so the ratio stays at or below ~1.
        assert comparison.rsac_vs_svw_cache_accesses[label] <= 1.05
        # ERT accesses with RSAC are no higher than with SVW.
        assert comparison.rsac_vs_svw_ert_accesses[label] <= 1.10
