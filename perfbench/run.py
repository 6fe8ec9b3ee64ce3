"""The repository benchmark: simulator throughput and service latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 30 --trace 0

Workloads: ``sweep-long`` and ``sweep-short`` (see ``sweeps.py``) and
``serve-mixed`` (see ``serve.py``); ``perfbench/README.md`` describes each
one and every metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``); the line
before it is the full report, host fingerprint included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

WORKLOADS = ("sweep-long", "sweep-short", "serve-mixed")

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    if args.workload == "serve-mixed":
        import serve as workload_module
    else:
        import sweeps as workload_module
    report = workload_module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.emit(report, trace=bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
