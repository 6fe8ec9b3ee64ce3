"""Record the sweep result digests the benchmark checks every run against.

Run from the checkout root after a change that is *meant* to alter
simulated results (never after a speed-only change):

    python3 perfbench/record_digests.py sweep-long
    python3 perfbench/record_digests.py sweep-short

Each call simulates one cold pass per recorded campaign seed and rewrites
``perfbench/digests/<workload>.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import sweeps  # noqa: E402


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in sweeps.INSTRUCTIONS:
        print(f"usage: record_digests.py {{{','.join(sweeps.INSTRUCTIONS)}}}", file=sys.stderr)
        return 2
    workload = sys.argv[1]
    digests = {}
    for campaign in range(1, sweeps.RECORDED_CAMPAIGNS + 1):
        record = sweeps.run_pass(sweeps.sweep_jobs(workload, campaign), traced=False)
        if record.failures:
            print(f"campaign {campaign}: {record.failures} jobs failed", file=sys.stderr)
            return 1
        digests[str(campaign)] = [harness.result_digest(result) for result in record.results]
        print(f"campaign {campaign}: {record.wall:.1f}s", file=sys.stderr)
    sweeps.DIGEST_DIR.mkdir(exist_ok=True)
    path = sweeps.DIGEST_DIR / f"{workload}.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
