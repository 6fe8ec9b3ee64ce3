"""Shared helpers of the repository benchmark: statistics, identity, output.

Nothing here imports :mod:`repro`; ``run.py`` puts the checkout's ``src``
directory on ``sys.path`` before the workload modules are imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Every scratch file a run writes lives under this directory of the
#: checkout, one sub-directory per benchmark process, removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"

#: End-to-end metrics and their units.  Every workload reports every one,
#: measured with the benchmark's own tracing off.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kips": "kinstr/s",
    "sims_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
}

#: Per-layer metrics and their units, from a traced run.  A workload that
#: never enters a layer reports 0 for it (e.g. the sweeps have no HTTP).
PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.generate_us_per_instr": "us",
    "sim.engine.build_ms_per_sim": "ms",
    "sim.engine.warmup_ms_per_sim.lru": "ms",
    "sim.engine.warmup_ms_per_sim.arc": "ms",
    "sim.engine.drive_us_per_instr.ooo": "us",
    "sim.engine.drive_us_per_instr.fmc_central": "us",
    "sim.engine.drive_us_per_instr.fmc_elsq": "us",
    "exp.runner.overhead_s": "s",
    "client.submit_ms": "ms",
    "client.wait_ms": "ms",
    "client.slack_ms": "ms",
    "service.http.post_jobs_ms": "ms",
    "service.http.get_job_ms": "ms",
    "service.polls_per_job": "count",
    "service.jobs.queue_wait_ms": "ms",
    "service.jobs.exec_ms": "ms",
    "exp.cache.hit_ratio": "ratio",
    "exp.cache.read_bytes": "bytes/job",
    "exp.cache.written_bytes": "bytes/job",
    "hit_p50_ms": "ms",
    "hit_p90_ms": "ms",
    "trace_overhead_pct": "%",
    "closure_error_pct": "%",
}

#: How far (percent of the measured total) the traced parts may miss it.
CLOSURE_TOLERANCE_PCT = 5.0

#: The exact work counters reported per workload, as
#: ``metric name -> CoreResult field or counter`` (``None``: one per sim).
WORK_COUNTERS = {
    "work.sims": None,
    "work.instructions": "committed_instructions",
    "work.cycles": "cycles",
    "work.hl_sq_searches": "hl_sq.searches",
    "work.ll_sq_searches": "ll_sq.searches",
    "work.ert_lookups": "ert.lookups",
    "work.cache_accesses": "cache.accesses",
    "work.l1_misses": "L1.misses",
    "work.l2_misses": "L2.misses",
}


#: The speed probe's time on the reference host in a quiet period; it only
#: fixes the unit of the normalised times (see README "Host speed").
PROBE_REFERENCE_S = 0.005

#: Minimum measured time between two speed probes.
PROBE_INTERVAL_S = 0.25


def _probe_kernel(iterations: int) -> int:
    """Dict, list and integer work, the staples of the simulator's loops."""
    table: Dict[int, int] = {}
    ring: List[int] = []
    acc = 0
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        ring.append(key * 3)
        if len(ring) > 256:
            ring.clear()
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


def speed_probe() -> float:
    """Seconds the fixed probe kernel takes right now (fastest of three).

    A shared host's neighbours change how fast it runs Python by tens of
    percent from one minute to the next.  A sweep pass probes between its
    jobs and scales its times by :func:`speed_scale`, so the reported times
    are those of a host running at reference speed.  On a 2-vCPU Xeon VM
    that cut the spread of one pass, repeated in one process, from about
    17% to about 3%.
    """
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        _probe_kernel(20_000)
        best = min(best, perf_counter() - started)
    return best


def speed_scale(probes: Sequence[float]) -> float:
    """Factor turning a time measured among ``probes`` into reference time."""
    return PROBE_REFERENCE_S / mean(probes)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Harrell-Davis estimate of the ``fraction`` quantile of a sample.

    A Beta-weighted mean of every order statistic rather than a single
    one: the sweeps' job latencies form clusters (one per machine and
    policy), and a single order statistic near a cluster edge jumps
    between runs where this estimate moves smoothly.
    """
    ordered = sorted(values)
    count = len(ordered)
    alpha, beta = fraction * (count + 1), (1.0 - fraction) * (count + 1)
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)

    def density(x: float) -> float:
        return math.exp(log_norm + (alpha - 1) * math.log(x) + (beta - 1) * math.log1p(-x))

    # Weight of order statistic i: the Beta density's mass on
    # [i/n, (i+1)/n], by the midpoint rule on eight sub-intervals.
    steps = 8 * count
    weights = [0.0] * count
    for step in range(steps):
        weights[step // 8] += density((step + 0.5) / steps)
    total = sum(weights)
    return sum(weight * value for weight, value in zip(weights, ordered)) / total


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def result_digest(result: Mapping[str, Any]) -> str:
    """Digest of one simulation's cycles, instruction count and counters.

    ``result`` is a ``CoreResult.to_dict()`` document; the digest covers
    exactly the simulated outcome, not labels or derived floats.
    """
    canonical = json.dumps(
        {
            "cycles": result["cycles"],
            "committed_instructions": result["committed_instructions"],
            "counters": result["counters"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def work_counters(results: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    """Sum the :data:`WORK_COUNTERS` over ``CoreResult.to_dict()`` documents."""
    totals = dict.fromkeys(WORK_COUNTERS, 0)
    for result in results:
        for metric, source in WORK_COUNTERS.items():
            if source is None:
                totals[metric] += 1
            elif source in result:
                totals[metric] += int(result[source])
            else:
                totals[metric] += int(result["counters"].get(source, 0))
    return totals


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live child process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")


def _source_digest() -> str:
    """SHA-256 over every ``src/repro`` Python file (path and content)."""
    digest = hashlib.sha256()
    source = ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, Any]:
    """Who measured: CPU, CPU count, Python and the code revision.

    Results from different fingerprints must not be compared.  A checkout
    without git history reports ``git_revision: "unknown"``; the source
    digest still identifies the code.
    """
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another benchmark process still owns a directory
            pass


def time_subprocess(command: List[str], timeout: float = 60.0) -> float:
    """Wall seconds a child process takes from spawn to exit (must succeed)."""
    started = perf_counter()
    subprocess.run(command, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return perf_counter() - started


def build_report(
    *,
    attempted: int,
    failed: int,
    mismatches: int,
    end_to_end: Mapping[str, float],
    per_layer: Mapping[str, float],
    counters: Mapping[str, int],
    closure: Mapping[str, Any],
    details: Mapping[str, Any],
) -> Dict[str, Any]:
    """Assemble one run's report with every metric paired with its unit.

    Missing per-layer metrics (layers the workload never enters) read 0;
    a missing end-to-end metric is a bug in the workload module.
    """
    layers = {name: (float(per_layer.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    layers.update({name: (int(value), "count") for name, value in counters.items()})
    error_rate = failed / attempted if attempted else 1.0
    return {
        "host": host_fingerprint(),
        "correct": mismatches == 0 and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "error_rate": (error_rate, "ratio"),
            "result_mismatches": (mismatches, "count"),
            "closure": dict(closure),
        },
        "end_to_end": {name: (float(end_to_end[name]), unit) for name, unit in END_TO_END.items()},
        "per_layer": layers,
        "details": dict(details),
    }


def emit(report: Dict[str, Any], trace: bool) -> None:
    """Print the full report, then the one-line result the driver reads.

    The result carries the end-to-end metrics, or with ``trace`` the
    per-layer ones; the report line before it carries everything (host
    fingerprint, sample sizes, both metric sets, closure, correctness).
    """
    chosen = report["per_layer"] if trace else report["end_to_end"]
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()
                },
            }
        )
    )
    sys.stdout.flush()
