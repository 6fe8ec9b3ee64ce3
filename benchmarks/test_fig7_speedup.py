"""Figure 7: speed-up of the large-window LSQ schemes over the OoO-64 baseline.

Paper expectation: SPEC FP speed-ups around 2.1x and SPEC INT around
1.1-1.2x; the Store Queue Mirror adds ~1% on FP and visibly more on INT; the
ELSQ with SQM matches or beats the idealised central LSQ.
"""

from __future__ import annotations

from conftest import run_once

from repro.sim.experiments import fig7_speedups
from repro.sim.tables import format_fig7


def test_fig7_speedups(benchmark, context):
    rows, baseline_ipc = run_once(benchmark, fig7_speedups, context)
    print()
    print(format_fig7((rows, baseline_ipc)))

    by_name = {row.machine_name: row for row in rows}
    hash_sqm = by_name["ELSQ Hash ERT + SQM"]
    hash_plain = by_name["ELSQ Hash ERT"]
    central = by_name["Central LSQ"]

    # Large-window machines clearly beat the 64-entry ROB on FP and the FP
    # gain is much larger than the INT gain.
    assert hash_sqm.speedup_by_suite["SPEC FP"] > 1.5
    assert hash_sqm.speedup_by_suite["SPEC INT"] > 0.95
    assert hash_sqm.speedup_by_suite["SPEC FP"] > hash_sqm.speedup_by_suite["SPEC INT"]

    # The SQM never hurts, and the ELSQ with SQM is at least competitive with
    # the idealised central queue.
    for suite in ("SPEC FP", "SPEC INT"):
        assert hash_sqm.speedup_by_suite[suite] >= hash_plain.speedup_by_suite[suite] - 0.02
        assert hash_sqm.speedup_by_suite[suite] >= central.speedup_by_suite[suite] - 0.05
